package cluster

import (
	"encoding/json"
	"testing"

	"repro/internal/geo"
)

// FuzzParseMap asserts the membership-map decoder never panics or
// allocates beyond its input on arbitrary bytes, and that a map it
// accepts assigns every slot in [0, Slots) to exactly one node, routes
// any point to a node, and survives a JSON round trip unchanged.
func FuzzParseMap(f *testing.F) {
	seed, err := json.Marshal(testMap(3000, 2400))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1,"cellSize":1000,"slots":1,"nodes":[{"id":"a","addr":"x","slots":[0]}]}`))
	f.Add([]byte(`{"version":1,"cellSize":1000,"slots":4611686018427387904,"nodes":[{"id":"a","addr":"x","slots":[0]}]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseMap(data)
		if err != nil {
			return
		}
		owned := make([]int, m.Slots)
		for ni, n := range m.Nodes {
			for _, s := range n.Slots {
				owned[s]++
				if m.slotOwner[s] != ni {
					t.Fatalf("slot %d: owner index %d, listed by node %d", s, m.slotOwner[s], ni)
				}
			}
		}
		for s, c := range owned {
			if c != 1 {
				t.Fatalf("slot %d listed %d times", s, c)
			}
		}
		for _, p := range []geo.Point{{X: 0, Y: 0}, {X: -1e9, Y: 1e9}, {X: 12345.6, Y: -7.5}} {
			if i := m.OwnerIndex(p); i < 0 || i >= len(m.Nodes) {
				t.Fatalf("OwnerIndex(%v) = %d outside [0, %d)", p, i, len(m.Nodes))
			}
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted map does not re-encode: %v", err)
		}
		m2, err := ParseMap(enc)
		if err != nil {
			t.Fatalf("re-encoded map rejected: %v", err)
		}
		enc2, _ := json.Marshal(m2)
		if string(enc2) != string(enc) {
			t.Fatalf("round trip changed the map:\n%s\n%s", enc, enc2)
		}
	})
}

package cluster

import (
	"encoding/json"
	"testing"
)

// FuzzParseMap asserts the membership-map decoder never panics or
// allocates beyond its input on arbitrary bytes, and that a map it
// accepts has a positive version and at least one node, finds every node
// at its own index, and survives a JSON round trip unchanged.
func FuzzParseMap(f *testing.F) {
	seed, err := json.Marshal(testMap())
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
		if m.Version < 1 || len(m.Nodes) == 0 {
			t.Fatalf("accepted map with version %d and %d nodes", m.Version, len(m.Nodes))
		}
		for i, n := range m.Nodes {
			if n.Addr == "" || m.Index(n.ID) != i {
				t.Fatalf("node %d (%q at %q): Index %d", i, n.ID, n.Addr, m.Index(n.ID))
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

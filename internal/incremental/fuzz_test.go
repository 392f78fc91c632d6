package incremental

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// gatheringStore returns a store whose checkpoint exercises every part of
// the format: three objects parked at site A for ticks 0–5 form an
// interior crowd with a gathering, and three more at site B for ticks 2–7
// form a tail crowd with one.
func gatheringStore(t testing.TB) *Store {
	t.Helper()
	s, err := New(crowd.Params{MC: 1, KC: 3, Delta: 1},
		gathering.Params{KC: 3, KP: 2, MP: 1}, gridFactory(1))
	if err != nil {
		t.Fatal(err)
	}
	site := func(tick trajectory.Tick, y float64, first trajectory.ObjectID) *snapshot.Cluster {
		objs := []trajectory.ObjectID{first, first + 1, first + 2}
		pts := []geo.Point{{X: 0, Y: y}, {X: 0.1, Y: y}, {X: 0.2, Y: y}}
		return snapshot.NewCluster(tick, objs, pts)
	}
	cdb := &snapshot.CDB{
		Domain:   trajectory.TimeDomain{Step: 1, N: 8},
		Clusters: make([][]*snapshot.Cluster, 8),
	}
	for tick := trajectory.Tick(0); tick < 8; tick++ {
		if tick <= 5 {
			cdb.Clusters[tick] = append(cdb.Clusters[tick], site(tick, 0, 100))
		}
		if tick >= 2 {
			cdb.Clusters[tick] = append(cdb.Clusters[tick], site(tick, 10, 200))
		}
	}
	s.Append(cdb)
	return s
}

// saveDTO checkpoints s and decodes the raw DTO, for tests that corrupt
// one field at a time.
func saveDTO(t testing.TB, s *Store) storeDTO {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var dto storeDTO
	if err := gob.NewDecoder(&buf).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	return dto
}

// TestLoadRejectsMalformed corrupts one field of a valid checkpoint per
// case; Load must return an error for each, never panic.
func TestLoadRejectsMalformed(t *testing.T) {
	base := saveDTO(t, gatheringStore(t))
	if len(base.Interior) == 0 || len(base.InteriorGs[0]) == 0 ||
		len(base.Tail) == 0 || len(base.TailGs[0]) == 0 {
		t.Fatalf("seed store lacks an interior or tail crowd with gatherings: %+v", base)
	}
	cases := []struct {
		name    string
		corrupt func(d *storeDTO)
		want    string
	}{
		{"negative ref tick", func(d *storeDTO) { d.Interior[0].Refs[0].Tick = -1 }, "dangling cluster ref"},
		{"negative ref index", func(d *storeDTO) { d.Tail[0].Refs[0].Index = -1 }, "dangling cluster ref"},
		{"interior gatherings short", func(d *storeDTO) { d.InteriorGs = d.InteriorGs[:0] }, "gathering lists"},
		{"tail gatherings short", func(d *storeDTO) { d.TailGs = d.TailGs[:0] }, "gathering lists"},
		{"gathering past its crowd", func(d *storeDTO) { d.InteriorGs[0][0].Hi = 99 }, "outside crowd"},
		{"objects and points differ", func(d *storeDTO) {
			c := &d.Ticks[0][0]
			c.Objects = []trajectory.ObjectID{2, 1}
			c.Points = c.Points[:1]
		}, "objects but"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := saveDTO(t, gatheringStore(t))
			tc.corrupt(&d)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&d); err != nil {
				t.Fatal(err)
			}
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Load panicked: %v", r)
					}
				}()
				_, err = Load(&buf, gridFactory(1))
				return err
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// FuzzLoad asserts that Load, the reader of every checkpointed shard,
// never panics on arbitrary bytes, and that any store it accepts saves
// and loads again with the same crowds and gatherings.
func FuzzLoad(f *testing.F) {
	empty, err := New(crowd.Params{MC: 1, KC: 2, Delta: 1}, gathering.Params{KC: 2, KP: 1, MP: 1}, gridFactory(1))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []*Store{gatheringStore(f), empty} {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data), gridFactory(1))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("accepted store does not save: %v", err)
		}
		again, err := Load(&buf, gridFactory(1))
		if err != nil {
			t.Fatalf("saved store does not load: %v", err)
		}
		if len(again.Crowds()) != len(s.Crowds()) || len(again.FlatGatherings()) != len(s.FlatGatherings()) {
			t.Fatalf("round trip changed the store: %d crowds/%d gatherings, want %d/%d",
				len(again.Crowds()), len(again.FlatGatherings()), len(s.Crowds()), len(s.FlatGatherings()))
		}
	})
}

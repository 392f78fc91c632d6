package incremental

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

func gridFactory(delta float64) func() crowd.Searcher {
	return func() crowd.Searcher { return &crowd.GridSearcher{Delta: delta} }
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cp := crowd.Params{MC: 1, KC: 3, Delta: 1.0}
	gp := gathering.Params{KC: 3, KP: 2, MP: 1}
	s := newStore(t, cp, gp)
	s.Append(cdbFromRows(0, figure2Rows()))

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(buf.Bytes(), gridFactory(cp.Delta))
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Ticks() != s.Ticks() {
		t.Fatalf("ticks: %d vs %d", loaded.Ticks(), s.Ticks())
	}
	if got, want := signatures(loaded.Crowds()), signatures(s.Crowds()); !reflect.DeepEqual(got, want) {
		t.Fatalf("crowds after load:\n got %v\nwant %v", got, want)
	}
	if got, want := len(loaded.FlatGatherings()), len(s.FlatGatherings()); got != want {
		t.Fatalf("gatherings after load: %d vs %d", got, want)
	}
}

func TestSaveLoadThenAppendMatchesUninterrupted(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	for trial := 0; trial < 10; trial++ {
		batches := [][][]float64{
			randRows(r, 4+r.Intn(4)),
			randRows(r, 4+r.Intn(4)),
			randRows(r, 4+r.Intn(4)),
		}
		full := buildFull(batches)
		cp := crowd.Params{MC: 1, KC: 2, Delta: 1.0}
		gp := gathering.Params{KC: 2, KP: 1, MP: 1}

		slice := func(i, tick int) *snapshot.CDB {
			n := len(batches[i])
			v := full.Slice(trajectory.Tick(tick), n)
			return &snapshot.CDB{Domain: v.Domain, Clusters: v.Clusters}
		}

		// uninterrupted run
		a := newStore(t, cp, gp)
		tick := 0
		for i := range batches {
			a.Append(slice(i, tick))
			tick += len(batches[i])
		}

		// run with a save/load cycle between every batch
		b := newStore(t, cp, gp)
		tick = 0
		for i := range batches {
			b.Append(slice(i, tick))
			tick += len(batches[i])
			var buf bytes.Buffer
			if err := b.Save(&buf); err != nil {
				t.Fatal(err)
			}
			var err error
			b, err = Load(buf.Bytes(), gridFactory(cp.Delta))
			if err != nil {
				t.Fatal(err)
			}
		}

		if got, want := signatures(b.Crowds()), signatures(a.Crowds()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: crowds diverge after save/load:\n got %v\nwant %v", trial, got, want)
		}
		ga, gb := a.FlatGatherings(), b.FlatGatherings()
		if len(ga) != len(gb) {
			t.Fatalf("trial %d: gathering counts diverge: %d vs %d", trial, len(ga), len(gb))
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("not a store section"), gridFactory(1)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestLoadRejectsWrongVersion: a section of a format version this build
// does not read is refused, not decoded as one it does, and so is a
// version-1 store, which was an encoding/gob stream. Each error names the
// versions that are read, 2 and 3.
func TestLoadRejectsWrongVersion(t *testing.T) {
	for _, v := range []int{oldestVersion - 1, persistVersion + 1} {
		dto := saveDTO(t, gatheringStore(t))
		dto.Version = v
		_, err := Load(appendStore(nil, dto), gridFactory(1))
		if err == nil || !strings.Contains(err.Error(), "unsupported store version") || !strings.Contains(err.Error(), "versions 2 and 3") {
			t.Fatalf("Load of version %d: %v, want an unsupported-version error naming versions 2 and 3", v, err)
		}
	}

	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(struct{ Version int }{1}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(v1.Bytes(), gridFactory(1))
	if err == nil || !strings.Contains(err.Error(), "version-1") ||
		!strings.Contains(err.Error(), "version-2") || !strings.Contains(err.Error(), "version-3") {
		t.Fatalf("Load of a version-1 gob store: %v, want an error naming version 1 and the versions read, 2 and 3", err)
	}
}

func TestSaveEmptyStore(t *testing.T) {
	cp := crowd.Params{MC: 1, KC: 2, Delta: 1.0}
	gp := gathering.Params{KC: 2, KP: 1, MP: 1}
	s := newStore(t, cp, gp)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(buf.Bytes(), gridFactory(cp.Delta))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Ticks() != 0 || len(loaded.Crowds()) != 0 {
		t.Fatal("empty store not empty after load")
	}
	// and it keeps working
	loaded.Append(cdbFromRows(0, [][]float64{{0}, {0}}))
	if len(loaded.Crowds()) != 1 {
		t.Fatalf("append after load: %v", signatures(loaded.Crowds()))
	}
}

// TestLoadVersion2: the version-2 gathering-store corpus file, written
// before final crowds kept summaries, loads to the shape of the current
// version's checkpoint of the same store: interior clusters point-free,
// the same crowds and gatherings. After the next Append both, and the
// store itself, answer the same.
func TestLoadVersion2(t *testing.T) {
	data := corpusSeed(t, "gathering-store")
	if v := data[len(storeMagic)]; v != 2 {
		t.Fatalf("corpus file holds a version-%d section, want version 2", v)
	}
	v2, err := Load(data, gridFactory(1))
	if err != nil {
		t.Fatal(err)
	}
	s := gatheringStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v3, err := Load(buf.Bytes(), gridFactory(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{v2, v3} {
		if len(st.interior) != 1 {
			t.Fatalf("%d interior crowds, want 1", len(st.interior))
		}
		for _, c := range st.interior[0].Clusters() {
			if c.Points != nil {
				t.Fatalf("interior cluster at tick %d holds %d points", c.T, len(c.Points))
			}
		}
	}
	if got, want := saveDTO(t, v2), saveDTO(t, v3); !reflect.DeepEqual(got, want) {
		t.Fatalf("version-2 and version-3 sections load to different stores:\n%+v\n%+v", got, want)
	}

	next := &snapshot.CDB{Domain: trajectory.TimeDomain{Step: 1, N: 3}, Clusters: make([][]*snapshot.Cluster, 3)}
	for i := range next.Clusters {
		tick := trajectory.Tick(8 + i)
		next.Clusters[i] = []*snapshot.Cluster{snapshot.NewCluster(tick,
			[]trajectory.ObjectID{200, 201, 202}, []geo.Point{{X: 0, Y: 10}, {X: 0.1, Y: 10}, {X: 0.2, Y: 10}})}
	}
	for _, st := range []*Store{s, v2, v3} {
		st.Append(next)
	}
	want := gatheringSigs(s)
	if len(want) != 2 {
		t.Fatalf("store answers %v after the next batch, want two gatherings", want)
	}
	for name, st := range map[string]*Store{"version 2": v2, "version 3": v3} {
		if got := gatheringSigs(st); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after the next batch:\n got %v\nwant %v", name, got, want)
		}
	}
}

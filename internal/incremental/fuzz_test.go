package incremental

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
// one field at a time and encode it again with appendStore.
func saveDTO(t testing.TB, s *Store) *storeDTO {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dto, err := decodeStore(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return dto
}

// tailCluster returns the saved cluster at the last tick of the
// checkpoint's first tail crowd: a cluster that keeps its points.
func tailCluster(d *storeDTO) *clusterDTO {
	cr := d.Tail[0]
	last := len(cr.Index) - 1
	return &d.Ticks[int(cr.Start)+last][cr.Index[last]]
}

// malformedCases corrupts one field of gatheringStore's checkpoint per
// case; want is a fragment of the error Load must return. A case with a
// seed name is also the FuzzLoad corpus file of that name. Tick 0's
// first cluster belongs to the interior crowd, so it is point-free.
var malformedCases = []struct {
	name, seed string
	corrupt    func(d *storeDTO)
	want       string
}{
	{"negative ref tick", "negative-ref-tick", func(d *storeDTO) { d.Interior[0].Start = -1 }, "dangling cluster ref"},
	{"negative ref index", "negative-ref-index", func(d *storeDTO) { d.Tail[0].Index[0] = -1 }, "dangling cluster ref"},
	{"interior gatherings short", "interior-gs-short", func(d *storeDTO) { d.InteriorGs = d.InteriorGs[:0] }, "gathering lists"},
	{"tail gatherings short", "tail-gs-short", func(d *storeDTO) { d.TailGs = d.TailGs[:0] }, "gathering lists"},
	{"gathering past its crowd", "gathering-past-crowd", func(d *storeDTO) { d.InteriorGs[0][0].Hi = 99 }, "outside crowd"},
	{"cluster table shorter than the domain", "", func(d *storeDTO) { d.Domain.N++ }, "-tick domain"},
	{"ref off its crowd's tick", "", func(d *storeDTO) {
		cr := &d.Interior[0]
		cr.Index[1] = len(d.Ticks[cr.Start+1])
	}, "at position 1"},
	{"objects and points differ", "ragged-cluster", func(d *storeDTO) {
		c := tailCluster(d)
		c.Points = c.Points[:1]
	}, "objects but"},
	{"crowd with no clusters", "crowd-no-clusters", func(d *storeDTO) { d.Interior[0].Index = nil }, "no clusters"},
	{"cluster with no objects", "cluster-no-objects", func(d *storeDTO) {
		c := tailCluster(d)
		c.Objects, c.Points = nil, nil
	}, "no objects"},
	{"point-free cluster with a non-finite MBR", "summary-mbr-nonfinite", func(d *storeDTO) {
		d.Ticks[0][0].MBR.MaxY = math.Inf(1)
	}, "non-finite MBR"},
	{"point-free cluster with a NaN MBR", "", func(d *storeDTO) {
		d.Ticks[0][0].MBR.MinX = math.NaN()
	}, "non-finite MBR"},
	{"point-free cluster with an inverted MBR", "summary-mbr-inverted", func(d *storeDTO) {
		m := &d.Ticks[0][0].MBR
		m.MinX, m.MaxX = m.MaxX, m.MinX
	}, "inverted MBR"},
	{"point-free cluster inverted in y", "", func(d *storeDTO) {
		d.Ticks[0][0].MBR.MinY = d.Ticks[0][0].MBR.MaxY + 1
	}, "inverted MBR"},
	{"tail cluster without points", "tail-point-free", func(d *storeDTO) {
		tailCluster(d).Points = nil
	}, "holds point-free cluster"},
	{"object IDs not ascending", "objects-not-ascending", func(d *storeDTO) {
		d.Ticks[0][0].Objects = []trajectory.ObjectID{102, 100, 100}
	}, "object IDs not strictly ascending"},
	{"participators not ascending", "participators-not-ascending", func(d *storeDTO) {
		ps := d.InteriorGs[0][0].Participators
		ps[0], ps[1] = ps[1], ps[0]
	}, "participators not strictly ascending"},
	{"tail crowd off the frontier", "tail-off-frontier", func(d *storeDTO) {
		d.Tail[0].Index = d.Tail[0].Index[:len(d.Tail[0].Index)-2]
		d.TailGs[0] = nil
	}, "does not end at the last tick"},
	{"interior crowd at the frontier", "", func(d *storeDTO) {
		d.Interior, d.InteriorGs = append(d.Interior, d.Tail[0]), append(d.InteriorGs, d.TailGs[0])
		d.Tail, d.TailGs = d.Tail[1:], d.TailGs[1:]
	}, "reaches the last tick"},
}

// TestLoadRejectsMalformed: Load returns an error for each malformed
// checkpoint, never panics.
func TestLoadRejectsMalformed(t *testing.T) {
	base := saveDTO(t, gatheringStore(t))
	if len(base.Interior) == 0 || len(base.InteriorGs[0]) == 0 ||
		len(base.Interior[0].Index) < 2 || len(base.InteriorGs[0][0].Participators) < 2 ||
		len(base.Tail) == 0 || len(base.TailGs[0]) == 0 || len(base.Ticks[0][0].Objects) != 3 {
		t.Fatalf("seed store lacks an interior or tail crowd with gatherings: %+v", base)
	}
	if m := base.Ticks[0][0].MBR; len(base.Ticks[0][0].Points) != 0 || !(m.MinX < m.MaxX) ||
		len(tailCluster(base).Points) != 3 {
		t.Fatalf("seed store lacks a point-free interior cluster of some width or a tail cluster with points: %+v", base)
	}
	for _, tc := range malformedCases {
		t.Run(tc.name, func(t *testing.T) {
			d := saveDTO(t, gatheringStore(t))
			tc.corrupt(d)
			data := appendStore(nil, d)
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Load panicked: %v", r)
					}
				}()
				_, err = Load(data, gridFactory(1))
				return err
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// TestFuzzLoadCorpusRoles: each FuzzLoad corpus file still plays the
// role its name gives it in the current layout — the saved stores load,
// and each malformed seed is refused for its own reason, not for a stale
// magic, version or checksum.
func TestFuzzLoadCorpusRoles(t *testing.T) {
	want := map[string]string{"empty-store": "", "gathering-store": "", "gathering-store-v3": ""}
	for _, tc := range malformedCases {
		if tc.seed != "" {
			want[tc.seed] = tc.want
		}
	}
	v3, err := decodeStore(corpusSeed(t, "gathering-store-v3"))
	if err != nil || v3.Version != persistVersion || !slices.ContainsFunc(v3.Ticks[0], func(c clusterDTO) bool { return c.pointFree(v3.Version) }) {
		t.Fatalf("gathering-store-v3 is not a version-%d section with a point-free cluster at tick 0: %v", persistVersion, err)
	}
	for seed, frag := range want {
		_, err := Load(corpusSeed(t, seed), gridFactory(1))
		switch {
		case frag == "" && err != nil:
			t.Errorf("%s: %v, want it to load", seed, err)
		case frag != "" && (err == nil || !strings.Contains(err.Error(), frag)):
			t.Errorf("%s: Load error %v, want one mentioning %q", seed, err, frag)
		}
	}
}

// corpusSeed returns the bytes of the FuzzLoad corpus file seed.
func corpusSeed(t *testing.T, seed string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoad", seed))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		t.Fatalf("%s: not a one-[]byte corpus file: %v", seed, err)
	}
	return []byte(data)
}

// FuzzLoad asserts that Load, the reader of every checkpointed shard,
// never panics on arbitrary bytes, and that the encoding is canonical:
// any store it accepts saves into bytes that load and save again
// byte for byte.
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
	save := func(t *testing.T, s *Store) []byte {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("accepted store does not save: %v", err)
		}
		return buf.Bytes()
	}
	check := func(t *testing.T, data []byte) {
		s, err := Load(data, gridFactory(1))
		if err != nil {
			return
		}
		first := save(t, s)
		again, err := Load(first, gridFactory(1))
		if err != nil {
			t.Fatalf("saved store does not load: %v", err)
		}
		if second := save(t, again); !bytes.Equal(second, first) {
			t.Fatalf("Save, Load, Save is not byte-identical:\n%x\n%x", first, second)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		// A mutation almost never keeps the checksum right; resealing
		// the section lets it reach the decoder behind the check.
		if n := len(data); n >= 4 {
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(sealed[n-4:], crc32.ChecksumIEEE(sealed[:n-4]))
			check(t, sealed)
		}
	})
}

package incremental

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/gathering"
	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// retentionBatch returns a batch of n ticks starting at absolute tick
// start. Each tick holds up to five clusters of one to three objects on
// distinct rows, so with MC 2 some clusters never join a candidate, and
// row r's objects are always 10r..10r+2, so crowds along a row gather.
func retentionBatch(r *rand.Rand, start trajectory.Tick, n int) *snapshot.CDB {
	b := &snapshot.CDB{
		Domain:   trajectory.TimeDomain{Step: 1, N: n},
		Clusters: make([][]*snapshot.Cluster, n),
	}
	for i := range b.Clusters {
		for _, row := range r.Perm(6)[:r.Intn(6)] {
			size := 1 + r.Intn(3)
			objs := make([]trajectory.ObjectID, size)
			pts := make([]geo.Point, size)
			for k := range objs {
				objs[k] = trajectory.ObjectID(10*row + k)
				pts[k] = geo.Point{X: 0.1 * float64(k), Y: float64(row)}
			}
			b.Clusters[i] = append(b.Clusters[i], snapshot.NewCluster(start+trajectory.Tick(i), objs, pts))
		}
	}
	return b
}

// retentionStream feeds ten fresh stores eight random batches of 0–5
// ticks each, calling check after every Append with the batch just
// applied. It fails t unless the stream found crowds and left clusters
// nobody references, so the checks cannot pass vacuously.
func retentionStream(t *testing.T, check func(s *Store, batch *snapshot.CDB)) {
	t.Helper()
	r := rand.New(rand.NewSource(293))
	cp := crowd.Params{MC: 2, KC: 3, Delta: 1}
	gp := gathering.Params{KC: 3, KP: 2, MP: 1}
	crowds, fed, referenced := 0, 0, 0
	for trial := 0; trial < 10; trial++ {
		s := newStore(t, cp, gp)
		for b := 0; b < 8; b++ {
			batch := retentionBatch(r, trajectory.Tick(s.Ticks()), r.Intn(6))
			fed += batch.NumClusters()
			s.Append(batch)
			check(s, batch)
		}
		crowds += len(s.Crowds())
		referenced += len(referencedClusters(s))
	}
	if crowds == 0 || referenced >= fed {
		t.Fatalf("vacuous stream: %d crowds, %d of %d clusters referenced", crowds, referenced, fed)
	}
}

// referencedClusters returns the clusters the store's interior crowds,
// tail candidates and gatherings point to.
func referencedClusters(s *Store) map[*snapshot.Cluster]bool {
	out := map[*snapshot.Cluster]bool{}
	add := func(cr *crowd.Crowd) {
		for _, c := range cr.Clusters() {
			out[c] = true
		}
	}
	for i, cr := range s.interior {
		add(cr)
		for _, g := range s.interiorGathers[i] {
			add(g.Crowd)
		}
	}
	for _, cr := range s.tail {
		add(cr)
		for _, g := range s.tailGathers[cr] {
			add(g.Crowd)
		}
	}
	return out
}

// fedKey names a fed cluster by its tick and its Objects array. A final
// crowd's summary of the cluster is a new value sharing that array, so
// the key maps a summary to the cluster it summarises.
type fedKey struct {
	t     trajectory.Tick
	first *trajectory.ObjectID
}

func keyOf(c *snapshot.Cluster) fedKey { return fedKey{c.T, &c.Objects[0]} }

// heldKey is a referenced fed cluster and whether it is held as a
// point-free summary.
type heldKey struct {
	fed       fedKey
	pointFree bool
}

// referencedKeys returns the fed clusters s references, each as points or
// as a summary. Summaries of one fed cluster made by different Appends
// count once, as they load once.
func referencedKeys(s *Store) map[heldKey]bool {
	out := map[heldKey]bool{}
	for c := range referencedClusters(s) {
		out[heldKey{keyOf(c), c.Points == nil}] = true
	}
	return out
}

// reachableClusters returns the address of every snapshot cluster
// reachable from root through pointers, interfaces, struct fields
// (unexported ones too), the full capacity of slices and arrays, map keys
// and values, and sync/atomic pointers: what the garbage collector would
// keep alive on root's behalf.
func reachableClusters(root any) map[uintptr]bool {
	clusterType := reflect.TypeOf((*snapshot.Cluster)(nil))
	type visit struct {
		p uintptr
		t reflect.Type
	}
	seen := map[visit]bool{}
	out := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[visit{v.Pointer(), v.Type()}] {
				return
			}
			seen[visit{v.Pointer(), v.Type()}] = true
			if v.Type() == clusterType {
				out[v.Pointer()] = true
				return
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			if typ := v.Type(); typ.PkgPath() == "sync/atomic" && strings.HasPrefix(typ.Name(), "Pointer[") {
				// atomic.Pointer[T] keeps its *T in an unsafe.Pointer
				// field; its zero-length [0]*T field carries the type.
				if p := v.FieldByName("v").UnsafePointer(); p != nil {
					walk(reflect.NewAt(typ.Field(0).Type.Elem().Elem(), p))
				}
				return
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.IsNil() || seen[visit{v.Pointer(), v.Type()}] {
				return
			}
			seen[visit{v.Pointer(), v.Type()}] = true
			v = v.Slice(0, v.Cap())
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return out
}

// TestStoreRetainsOnlyReferencedClusters: after every Append, each
// cluster reachable from the store is one a crowd or gathering references,
// or one of the last two ticks, which the grid searcher indexes for the
// next resume. The store holds no cluster list for any past tick. A
// referenced cluster is a fed one or a final crowd's summary of one,
// matched to it by (T, &Objects[0]).
func TestStoreRetainsOnlyReferencedClusters(t *testing.T) {
	tickOf := map[uintptr]trajectory.Tick{}
	fed := map[fedKey]bool{}
	retentionStream(t, func(s *Store, batch *snapshot.CDB) {
		for _, cs := range batch.Clusters {
			for _, c := range cs {
				tickOf[reflect.ValueOf(c).Pointer()] = c.T
				fed[keyOf(c)] = true
			}
		}
		want := map[uintptr]*snapshot.Cluster{}
		for c := range referencedClusters(s) {
			want[reflect.ValueOf(c).Pointer()] = c
		}
		last := trajectory.Tick(s.Ticks() - 1)
		for p := range reachableClusters(s) {
			if c, ok := want[p]; ok {
				if !fed[keyOf(c)] {
					t.Fatalf("the store references a cluster of tick %d it was never fed", c.T)
				}
				continue
			}
			tick, ok := tickOf[p]
			if !ok {
				t.Fatalf("the store reaches a cluster it was never fed")
			}
			if tick < last-1 {
				t.Fatalf("after %d ticks the store still reaches a cluster of tick %d that no crowd references", s.Ticks(), tick)
			}
		}
	})
}

// savedRef names a saved cluster by its tick and its index in that
// tick's list.
type savedRef struct{ tick, index int }

// TestSavedClustersAreReferenced: the checkpoint's cluster table has one
// entry per tick of the domain and lists exactly the clusters the saved
// crowds reference, each under its own tick, and each fed cluster once
// per form: summaries of one fed cluster that different Appends made
// share one entry.
func TestSavedClustersAreReferenced(t *testing.T) {
	entries, held, pointers := 0, 0, 0
	retentionStream(t, func(s *Store, _ *snapshot.CDB) {
		dto := saveDTO(t, s)
		if len(dto.Ticks) != dto.Domain.N {
			t.Fatalf("cluster table of %d ticks for a %d-tick domain", len(dto.Ticks), dto.Domain.N)
		}
		used := map[savedRef]bool{}
		for _, d := range append(append([]crowdDTO(nil), dto.Interior...), dto.Tail...) {
			for i, idx := range d.Index {
				used[savedRef{int(d.Start) + i, idx}] = true
			}
		}
		for tick, cs := range dto.Ticks {
			for i := range cs {
				if ref := (savedRef{tick, i}); !used[ref] {
					t.Fatalf("after %d ticks the checkpoint lists cluster %+v, which no saved crowd references", s.Ticks(), ref)
				}
			}
		}
		if want := len(referencedKeys(s)); len(used) != want {
			t.Fatalf("checkpoint lists %d clusters, the store references %d fed clusters per form", len(used), want)
		}
		entries += len(used)
		held += len(referencedKeys(s))
		pointers += len(referencedClusters(s))
	})
	t.Logf("%d entries for %d fed clusters per form, held as %d cluster values", entries, held, pointers)
	if pointers == held {
		t.Fatal("vacuous stream: no fed cluster was held as two summaries")
	}
}

// fullHistoryDTO encodes s the way checkpoints were written while the
// store kept every cluster since tick 0: full lists each tick's clusters
// in their original order, referenced or not, with their points, and
// crowds point into it. A summary points at the fed cluster it
// summarises, found by (T, &Objects[0]).
func fullHistoryDTO(t *testing.T, s *Store, full *snapshot.CDB) *storeDTO {
	t.Helper()
	dto := saveDTO(t, s)
	indexOf := map[fedKey]int{}
	dto.Ticks = make([][]clusterDTO, len(full.Clusters))
	for tick, cs := range full.Clusters {
		for i, c := range cs {
			dto.Ticks[tick] = append(dto.Ticks[tick], clusterDTO{T: c.T, Objects: c.Objects, Points: c.Points})
			indexOf[keyOf(c)] = i
		}
	}
	encode := func(crs []*crowd.Crowd) []crowdDTO {
		out := make([]crowdDTO, len(crs))
		for i, cr := range crs {
			out[i] = crowdDTO{Start: cr.Start}
			for _, c := range cr.Clusters() {
				idx, ok := indexOf[keyOf(c)]
				if !ok {
					t.Fatalf("crowd %v holds a cluster of tick %d that was never fed", cr, c.T)
				}
				out[i].Index = append(out[i].Index, idx)
			}
		}
		return out
	}
	dto.Interior, dto.Tail = encode(s.interior), encode(s.tail)
	return dto
}

// gatheringSigs renders every gathering as its crowd, range and
// participators, sorted.
func gatheringSigs(s *Store) []string {
	var out []string
	for i, cr := range s.Crowds() {
		for _, g := range s.Gatherings()[i] {
			out = append(out, fmt.Sprintf("%s[%d,%d)%v", signature(cr), g.Lo, g.Hi, g.Participators))
		}
	}
	sort.Strings(out)
	return out
}

// TestLoadFullHistoryCheckpoint: a checkpoint that lists every cluster
// since tick 0 loads to the same crowds and gatherings, keeps answering
// like the store it came from, and saves again without the clusters no
// crowd references: one entry per fed cluster the store holds as points
// and one per fed cluster it holds as a summary.
func TestLoadFullHistoryCheckpoint(t *testing.T) {
	r := rand.New(rand.NewSource(307))
	cp := crowd.Params{MC: 2, KC: 3, Delta: 1}
	gp := gathering.Params{KC: 3, KP: 2, MP: 1}
	s := newStore(t, cp, gp)
	full := &snapshot.CDB{Domain: trajectory.TimeDomain{Step: 1}}
	for b := 0; b < 6; b++ {
		batch := retentionBatch(r, trajectory.Tick(s.Ticks()), 1+r.Intn(5))
		full.Append(batch)
		s.Append(batch)
	}
	old := fullHistoryDTO(t, s, full)
	loaded, err := Load(appendStore(nil, old), gridFactory(cp.Delta))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := signatures(loaded.Crowds()), signatures(s.Crowds()); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("crowds after loading a full-history checkpoint:\n got %v\nwant %v", got, want)
	}
	if got, want := gatheringSigs(loaded), gatheringSigs(s); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("gatherings after loading a full-history checkpoint:\n got %v\nwant %v", got, want)
	}

	resaved := saveDTO(t, loaded)
	if got, want := countEntries(resaved), len(referencedKeys(s)); got != want || got >= countEntries(old) {
		t.Fatalf("re-saved checkpoint lists %d clusters, want the %d referenced of %d", got, want, countEntries(old))
	}

	next := retentionBatch(r, trajectory.Tick(s.Ticks()), 4)
	s.Append(next)
	loaded.Append(next)
	if got, want := gatheringSigs(loaded), gatheringSigs(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("gatherings diverge after the next batch:\n got %v\nwant %v", got, want)
	}
}

// TestInteriorClustersHoldNoPoints: after every Append of a randomized
// stream, and after a Save/Load round trip in the current version and in
// version 2, every cluster reachable from an interior crowd or its
// gatherings is a point-free summary with the T, Objects and MBR of the
// fed cluster it summarises, and each tail candidate's last cluster
// still holds its points.
func TestInteriorClustersHoldNoPoints(t *testing.T) {
	fed := map[fedKey]*snapshot.Cluster{}
	fedOf := func(c *snapshot.Cluster) *snapshot.Cluster {
		f := fed[keyOf(c)]
		if f == nil {
			t.Fatalf("the store holds a cluster of tick %d it was never fed", c.T)
		}
		return f
	}
	summaries, tails := 0, 0
	// check inspects st, whose i-th interior crowd and j-th tail candidate
	// are those of ref, the store that was fed.
	check := func(st, ref *Store, how string) {
		listed := map[uintptr]bool{}
		for i, cr := range st.interior {
			for k, c := range cr.Clusters() {
				want := fedOf(ref.interior[i].At(k))
				if c.Points != nil {
					t.Fatalf("%s: interior crowd %v holds %d points at tick %d", how, cr, len(c.Points), c.T)
				}
				if c.T != want.T || !reflect.DeepEqual(c.Objects, want.Objects) || c.MBR() != want.MBR() {
					t.Fatalf("%s: summary (T %d, %v, %v) of fed cluster (T %d, %v, %v)", how,
						c.T, c.Objects, c.MBR(), want.T, want.Objects, want.MBR())
				}
				listed[reflect.ValueOf(c).Pointer()] = true
				summaries++
			}
			for _, g := range st.interiorGathers[i] {
				for k, c := range g.Crowd.Clusters() {
					if c != cr.At(g.Lo+k) {
						t.Fatalf("%s: gathering [%d,%d) of crowd %v holds a cluster its crowd does not", how, g.Lo, g.Hi, cr)
					}
				}
			}
		}
		for p := range reachableClusters([]any{st.interior, st.interiorGathers}) {
			if !listed[p] {
				t.Fatalf("%s: an interior crowd or gathering reaches a cluster no interior crowd lists", how)
			}
		}
		for j, cr := range st.tail {
			c, want := cr.Last(), fedOf(ref.tail[j].Last())
			if c.Points == nil || !reflect.DeepEqual(c.Points, want.Points) {
				t.Fatalf("%s: tail candidate %v holds points %v at its last tick, want %v", how, cr, c.Points, want.Points)
			}
			tails++
		}
	}
	retentionStream(t, func(s *Store, batch *snapshot.CDB) {
		for _, cs := range batch.Clusters {
			for _, c := range cs {
				fed[keyOf(c)] = c
			}
		}
		check(s, s, "after Append")

		loaded, err := Load(appendStore(nil, saveDTO(t, s)), gridFactory(1))
		if err != nil {
			t.Fatal(err)
		}
		check(loaded, s, "after a Save/Load round trip")

		v2 := saveDTO(t, s)
		v2.Version = 2
		for i, cr := range s.interior {
			d := v2.Interior[i]
			for k, c := range cr.Clusters() {
				v2.Ticks[int(d.Start)+k][d.Index[k]].Points = fedOf(c).Points
			}
		}
		loaded, err = Load(appendStore(nil, v2), gridFactory(1))
		if err != nil {
			t.Fatal(err)
		}
		check(loaded, s, "after loading a version-2 section")
		if got, want := gatheringSigs(loaded), gatheringSigs(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("gatherings of a version-2 section:\n got %v\nwant %v", got, want)
		}
	})
	if summaries == 0 || tails == 0 {
		t.Fatalf("vacuous stream: %d summaries and %d tail candidates checked", summaries, tails)
	}
}

// pointerKeyedDTO encodes s the way a version-3 checkpoint was written
// before Save named summaries by their fed cluster: one entry per
// distinct cluster value, so two summaries of one fed cluster are listed
// twice.
func pointerKeyedDTO(t *testing.T, s *Store) *storeDTO {
	t.Helper()
	dto := saveDTO(t, s)
	dto.Ticks = make([][]clusterDTO, s.domain.N)
	indexOf := map[*snapshot.Cluster]int{}
	encode := func(crs []*crowd.Crowd) []crowdDTO {
		out := make([]crowdDTO, len(crs))
		for i, cr := range crs {
			out[i] = crowdDTO{Start: cr.Start}
			for k, c := range cr.Clusters() {
				idx, ok := indexOf[c]
				if !ok {
					tick := int(cr.Start) + k
					idx = len(dto.Ticks[tick])
					dto.Ticks[tick] = append(dto.Ticks[tick], clusterDTO{T: c.T, Objects: c.Objects, Points: c.Points, MBR: c.MBR()})
					indexOf[c] = idx
				}
				out[i].Index = append(out[i].Index, idx)
			}
		}
		return out
	}
	dto.Interior, dto.Tail = encode(s.interior), encode(s.tail)
	return dto
}

// TestLoadDuplicateSummaries: a version-3 section that lists one fed
// cluster's summaries more than once, as Save wrote them while it keyed
// its table by pointer, still loads to the same answers. Load builds one
// cluster per entry, so the duplicates stay distinct clusters and the
// re-save lists no more entries than the section did, and Save, Load,
// Save is byte-identical.
func TestLoadDuplicateSummaries(t *testing.T) {
	dups := 0
	retentionStream(t, func(s *Store, _ *snapshot.CDB) {
		old := pointerKeyedDTO(t, s)
		loaded, err := Load(appendStore(nil, old), gridFactory(1))
		if err != nil {
			t.Fatalf("a section listing duplicate summaries is refused: %v", err)
		}
		if got, want := signatures(loaded.Crowds()), signatures(s.Crowds()); !reflect.DeepEqual(got, want) {
			t.Fatalf("crowds after loading duplicate summaries:\n got %v\nwant %v", got, want)
		}
		if got, want := gatheringSigs(loaded), gatheringSigs(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("gatherings after loading duplicate summaries:\n got %v\nwant %v", got, want)
		}
		var first, again bytes.Buffer
		if err := loaded.Save(&first); err != nil {
			t.Fatal(err)
		}
		resaved, err := decodeStore(first.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := countEntries(resaved), countEntries(old); got > want {
			t.Fatalf("re-saving a section of %d entries lists %d", want, got)
		}
		reloaded, err := Load(first.Bytes(), gridFactory(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := reloaded.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatal("Save, Load, Save is not byte-identical")
		}
		dups += countEntries(old) - len(referencedKeys(s))
	})
	if dups == 0 {
		t.Fatal("vacuous stream: no section listed a duplicate summary")
	}
}

// countEntries returns the number of clusters d's table lists.
func countEntries(d *storeDTO) (n int) {
	for _, cs := range d.Ticks {
		n += len(cs)
	}
	return n
}

package trajectory

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geo"
)

func traj(id ObjectID, samples ...Sample) Trajectory {
	return Trajectory{ID: id, Samples: samples}
}

func s(t, x, y float64) Sample { return Sample{Time: t, P: geo.Point{X: x, Y: y}} }

func TestLifespan(t *testing.T) {
	tr := traj(0, s(1, 0, 0), s(5, 1, 1))
	a, b, ok := tr.Lifespan()
	if !ok || a != 1 || b != 5 {
		t.Fatalf("Lifespan = %v %v %v", a, b, ok)
	}
	empty := traj(1)
	if _, _, ok := empty.Lifespan(); ok {
		t.Fatal("empty trajectory has lifespan")
	}
}

func TestLocationAtExactAndInterpolated(t *testing.T) {
	tr := traj(0, s(0, 0, 0), s(10, 10, 20), s(20, 10, 20))
	if p, ok := tr.LocationAt(0); !ok || p != (geo.Point{X: 0, Y: 0}) {
		t.Fatalf("t=0: %v %v", p, ok)
	}
	if p, ok := tr.LocationAt(10); !ok || p != (geo.Point{X: 10, Y: 20}) {
		t.Fatalf("t=10: %v %v", p, ok)
	}
	if p, ok := tr.LocationAt(5); !ok || p != (geo.Point{X: 5, Y: 10}) {
		t.Fatalf("t=5 interpolation: %v %v", p, ok)
	}
	if p, ok := tr.LocationAt(15); !ok || p != (geo.Point{X: 10, Y: 20}) {
		t.Fatalf("t=15 stationary: %v %v", p, ok)
	}
}

func TestLocationAtOutsideLifespan(t *testing.T) {
	tr := traj(0, s(5, 0, 0), s(10, 1, 1))
	if _, ok := tr.LocationAt(4.9); ok {
		t.Fatal("extrapolated before start")
	}
	if _, ok := tr.LocationAt(10.1); ok {
		t.Fatal("extrapolated after end")
	}
	empty := traj(1)
	if _, ok := empty.LocationAt(0); ok {
		t.Fatal("empty trajectory returned location")
	}
}

func TestLocationAtDuplicateTimestamps(t *testing.T) {
	tr := traj(0, s(0, 0, 0), s(5, 3, 3), s(5, 9, 9), s(10, 9, 9))
	p, ok := tr.LocationAt(5)
	if !ok {
		t.Fatal("no location at duplicate timestamp")
	}
	// Either sample at t=5 is acceptable; it must be one of them.
	if p != (geo.Point{X: 3, Y: 3}) && p != (geo.Point{X: 9, Y: 9}) {
		t.Fatalf("unexpected location %v", p)
	}
}

func TestSortSamples(t *testing.T) {
	tr := traj(0, s(5, 1, 1), s(1, 0, 0), s(3, 2, 2))
	if tr.Sorted() {
		t.Fatal("unsorted reported sorted")
	}
	tr.SortSamples()
	if !tr.Sorted() {
		t.Fatal("SortSamples did not sort")
	}
	if tr.Samples[0].Time != 1 || tr.Samples[2].Time != 5 {
		t.Fatalf("bad order: %+v", tr.Samples)
	}
}

func TestSimplify(t *testing.T) {
	tr := traj(7)
	for i := 0; i <= 10; i++ {
		tr.Samples = append(tr.Samples, s(float64(i), float64(i), 0))
	}
	out := tr.Simplify(0.1)
	if out.ID != 7 {
		t.Fatalf("ID lost: %d", out.ID)
	}
	if len(out.Samples) != 2 {
		t.Fatalf("straight line simplified to %d samples", len(out.Samples))
	}
	if out.Samples[0].Time != 0 || out.Samples[1].Time != 10 {
		t.Fatalf("endpoints wrong: %+v", out.Samples)
	}
}

func TestTimeDomain(t *testing.T) {
	d := TimeDomain{Start: 100, Step: 60, N: 10}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.TimeOf(0); got != 100 {
		t.Fatalf("TimeOf(0) = %v", got)
	}
	if got := d.TimeOf(9); got != 640 {
		t.Fatalf("TimeOf(9) = %v", got)
	}
	if got := d.End(); got != 640 {
		t.Fatalf("End = %v", got)
	}
	e := d.Extend(5)
	if e.N != 15 || e.Start != 100 {
		t.Fatalf("Extend = %+v", e)
	}
	for _, bad := range []TimeDomain{
		{Step: 0, N: 1},
		{Step: -1, N: 1},
		{Step: math.NaN(), N: 4},
		{Step: math.Inf(1), N: 4},
		{Start: math.NaN(), Step: 1, N: 4},
		{Start: math.Inf(1), Step: 1, N: 4},
		{Start: math.Inf(-1), Step: 1, N: 4},
		{Step: 1, N: -1},
	} {
		if bad.Validate() == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	if (TimeDomain{Step: 1, N: 0}).End() != 0 {
		t.Fatal("End of empty domain")
	}
}

func TestDBValidate(t *testing.T) {
	db := &DB{
		Trajs:  []Trajectory{traj(0, s(0, 0, 0)), traj(1, s(0, 1, 1))},
		Domain: TimeDomain{Step: 1, N: 2},
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	db.Trajs = append(db.Trajs, traj(1, s(0, 2, 2)))
	if db.Validate() == nil {
		t.Fatal("duplicate ID accepted")
	}
	db.Trajs = []Trajectory{traj(0, s(5, 0, 0), s(1, 1, 1))}
	if db.Validate() == nil {
		t.Fatal("unsorted trajectory accepted")
	}
}

func TestDBSnapshot(t *testing.T) {
	db := &DB{
		Trajs: []Trajectory{
			traj(0, s(0, 0, 0), s(10, 10, 0)),
			traj(1, s(5, 100, 100), s(10, 100, 100)),
			traj(2, s(20, 0, 0), s(30, 1, 1)), // not alive early
		},
		Domain: TimeDomain{Start: 0, Step: 5, N: 7},
	}
	snap := db.Snapshot(0, nil)
	if len(snap) != 1 || snap[0].ID != 0 {
		t.Fatalf("tick 0 snapshot: %+v", snap)
	}
	snap = db.Snapshot(1, snap) // t = 5: objects 0 (interpolated) and 1
	if len(snap) != 2 {
		t.Fatalf("tick 1 snapshot: %+v", snap)
	}
	if snap[0].P != (geo.Point{X: 5, Y: 0}) {
		t.Fatalf("interpolated point: %v", snap[0].P)
	}
	snap = db.Snapshot(6, snap) // t = 30: only object 2
	if len(snap) != 1 || snap[0].ID != 2 {
		t.Fatalf("tick 6 snapshot: %+v", snap)
	}
}

func TestDBSubsetAndMaxID(t *testing.T) {
	db := &DB{Trajs: []Trajectory{traj(3), traj(9), traj(5)}}
	if got := db.MaxID(); got != 9 {
		t.Fatalf("MaxID = %d", got)
	}
	sub := db.Subset(2)
	if sub.NumObjects() != 2 {
		t.Fatalf("Subset(2) has %d objects", sub.NumObjects())
	}
	if sub = db.Subset(100); sub.NumObjects() != 3 {
		t.Fatalf("Subset(100) has %d objects", sub.NumObjects())
	}
	empty := &DB{}
	if got := empty.MaxID(); got != -1 {
		t.Fatalf("empty MaxID = %d", got)
	}
}

func TestDBSliceTicks(t *testing.T) {
	db := &DB{Domain: TimeDomain{Start: 0, Step: 2, N: 100}}
	v := db.SliceTicks(10, 5)
	if v.Domain.Start != 20 || v.Domain.N != 5 || v.Domain.Step != 2 {
		t.Fatalf("SliceTicks domain = %+v", v.Domain)
	}
}

func TestDBBatches(t *testing.T) {
	db := &DB{Domain: TimeDomain{Start: 0, Step: 2, N: 100}}
	bs := db.Batches(30)
	if len(bs) != 4 {
		t.Fatalf("Batches(30) over 100 ticks: %d batches, want 4", len(bs))
	}
	total := 0
	for _, b := range bs {
		total += b.Domain.N
	}
	if total != 100 || bs[3].Domain.N != 10 {
		t.Fatalf("batch ticks sum %d (last %d), want 100 (last 10)", total, bs[3].Domain.N)
	}
	if bs[1].Domain.Start != 60 { // tick 30 at step 2
		t.Fatalf("second batch starts at %v, want 60", bs[1].Domain.Start)
	}
	if db.Batches(0) != nil {
		t.Fatal("Batches(0) should be nil")
	}
}

func TestDBAppend(t *testing.T) {
	db := &DB{
		Trajs:  []Trajectory{traj(0, s(0, 0, 0), s(9, 9, 9))},
		Domain: TimeDomain{Start: 0, Step: 1, N: 10},
	}
	batch := &DB{
		Trajs: []Trajectory{
			traj(0, s(10, 10, 10)),
			traj(1, s(10, 0, 0)),
		},
		Domain: TimeDomain{Start: 10, Step: 1, N: 5},
	}
	if err := db.Append(batch); err != nil {
		t.Fatal(err)
	}
	if db.Domain.N != 15 {
		t.Fatalf("domain N = %d", db.Domain.N)
	}
	if len(db.Trajs) != 2 {
		t.Fatalf("trajectory count = %d", len(db.Trajs))
	}
	if got := len(db.Trajs[0].Samples); got != 3 {
		t.Fatalf("object 0 has %d samples", got)
	}
	bad := &DB{Domain: TimeDomain{Step: 2}}
	if err := db.Append(bad); err == nil {
		t.Fatal("mismatched step accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	trajs := make([]Trajectory, 5)
	for i := range trajs {
		trajs[i].ID = ObjectID(i * 3)
		for k := 0; k < 1+r.Intn(10); k++ {
			trajs[i].Samples = append(trajs[i].Samples,
				s(float64(k)*1.5, r.Float64()*1000, r.Float64()*1000))
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trajs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trajs, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", trajs, got)
	}
}

// TestReadCSVErrors: a malformed or non-finite field is refused with an
// error naming its line and column.
func TestReadCSVErrors(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"id,time,x,y\nfoo,1,2,3\n", "line 2: bad id"},
		{"id,time,x,y\n1,bar,2,3\n", "line 2: bad time"},
		{"id,time,x,y\n1,1,baz,3\n", "line 2: bad x"},
		{"id,time,x,y\n1,1,2,qux\n", "line 2: bad y"},
		{"id,time,x\n", "wrong number of fields"},
		{"1,NaN,5,5\n2,Inf,1,1\n", "line 1: bad time \"NaN\""},
		{"1,0,5,5\n2,Inf,1,1\n", "line 2: bad time \"Inf\""},
		{"id,time,x,y\n1,0,5,5\n1,-Inf,1,1\n", "line 3: bad time \"-Inf\""},
		{"1,1e309,5,5\n", "line 1: bad time"},
		{"1,0,nan,5\n", "line 1: bad x \"nan\""},
		{"1,0,+Inf,5\n", "line 1: bad x"},
		{"1,0,5,NaN\n", "line 1: bad y \"NaN\""},
		{"1,0,5,-infinity\n", "line 1: bad y"},
		{"1,0,5,-1e309\n", "line 1: bad y"},
	} {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadCSV(%q) = %v, want an error containing %q", c.in, err, c.want)
		}
	}
}

func TestReadCSVNoHeaderAndUnordered(t *testing.T) {
	in := "1,5,50,50\n0,0,1,2\n1,0,10,10\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("parsed %+v", got)
	}
	if got[1].Samples[0].Time != 0 || got[1].Samples[1].Time != 5 {
		t.Fatalf("samples not time-sorted: %+v", got[1].Samples)
	}
}

// TestLoadCSV: the domain starts at the earliest sample; an empty domain
// (zero or negative ticks), a non-positive step and a file without
// trajectories are refused.
func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	day := write("day.csv", "id,time,x,y\n1,5,50,50\n0,2,1,2\n1,3,10,10\n")
	db, err := LoadCSV(day, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := (TimeDomain{Start: 2, Step: 1, N: 4}); db.Domain != want || db.NumObjects() != 2 {
		t.Fatalf("LoadCSV = %d objects over %+v, want 2 over %+v", db.NumObjects(), db.Domain, want)
	}
	for _, c := range []struct {
		path  string
		ticks int
		step  float64
	}{
		{day, 0, 1},
		{day, -3, 1},
		{day, 4, 0},
		{day, 4, -1},
		{day, 4, math.NaN()},
		{write("empty.csv", "id,time,x,y\n"), 4, 1},
		{filepath.Join(dir, "missing.csv"), 4, 1},
	} {
		if _, err := LoadCSV(c.path, c.ticks, c.step); err == nil {
			t.Errorf("LoadCSV(%s, ticks %d, step %v) accepted", filepath.Base(c.path), c.ticks, c.step)
		}
	}
}

func TestInterpolationIsPiecewiseLinear(t *testing.T) {
	// Property: for random trajectories and random query times inside the
	// lifespan, the returned point lies on the segment between the two
	// bracketing samples.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		tr := Trajectory{ID: 0}
		tm := 0.0
		for k := 0; k < 2+r.Intn(10); k++ {
			tm += 0.1 + r.Float64()*5
			tr.Samples = append(tr.Samples, s(tm, r.Float64()*100, r.Float64()*100))
		}
		start, end, _ := tr.Lifespan()
		q := start + r.Float64()*(end-start)
		p, ok := tr.LocationAt(q)
		if !ok {
			t.Fatalf("trial %d: no location inside lifespan", trial)
		}
		// find bracketing samples
		var a, b Sample
		for i := 0; i+1 < len(tr.Samples); i++ {
			if tr.Samples[i].Time <= q && q <= tr.Samples[i+1].Time {
				a, b = tr.Samples[i], tr.Samples[i+1]
				break
			}
		}
		d := geo.PointSegDist(p, a.P, b.P)
		if d > 1e-6 {
			t.Fatalf("trial %d: interpolated point off segment by %v", trial, d)
		}
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatalf("trial %d: NaN point", trial)
		}
	}
}

// TestWindowPreservesLocationAt is the clip's contract, over random
// irregularly sampled trajectories (duplicate timestamps, samples on the
// window's ends, 0 and 1 samples) and windows that start, end, or lie
// wholly inside or outside the lifespan: LocationAt on Window agrees with
// LocationAt on the whole trajectory at every tick of the window, ok flag
// included, and the Window of a Window is the same slice.
func TestWindowPreservesLocationAt(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	gaps := []float64{0, 0.5, 1, 1.5, 3} // 0 duplicates a timestamp
	for trial := 0; trial < 2000; trial++ {
		tr := Trajectory{ID: 0}
		tm := float64(r.Intn(10)) / 2
		for k := r.Intn(9); k > 0; k-- {
			tr.Samples = append(tr.Samples, s(tm, r.Float64()*100, r.Float64()*100))
			tm += gaps[r.Intn(len(gaps))]
		}
		// Half-tick grid, so window ends often land exactly on samples;
		// the range reaches past both ends of every lifespan.
		d := TimeDomain{
			Start: float64(r.Intn(40)-10) / 2,
			Step:  float64(1+r.Intn(3)) / 2,
			N:     r.Intn(7),
		}
		t0, t1 := d.Start, d.End()
		w := tr.Window(t0, t1)
		clip := Trajectory{ID: tr.ID, Samples: w}
		for i := 0; i < d.N; i++ {
			at := d.TimeOf(Tick(i))
			wantP, wantOK := tr.LocationAt(at)
			gotP, gotOK := clip.LocationAt(at)
			if gotOK != wantOK || gotP != wantP {
				t.Fatalf("trial %d: %v over window [%v, %v] at %v: clipped %v,%v, whole %v,%v (clip %v)",
					trial, tr.Samples, t0, t1, at, gotP, gotOK, wantP, wantOK, w)
			}
		}
		again := clip.Window(t0, t1)
		if len(again) != len(w) || (len(w) > 0 && &again[0] != &w[0]) {
			t.Fatalf("trial %d: Window of Window %v, want the same slice %v", trial, again, w)
		}
		start, end, ok := tr.Lifespan()
		if misses := !ok || end < t0 || start > t1; misses != (w == nil) {
			t.Fatalf("trial %d: lifespan [%v, %v] vs window [%v, %v]: got %v", trial, start, end, t0, t1, w)
		}
	}
}

func TestWindowBounds(t *testing.T) {
	tr := traj(0, s(0, 0, 0), s(2, 2, 0), s(4, 4, 0), s(4, 5, 0), s(6, 6, 0), s(8, 8, 0))
	cases := []struct {
		t0, t1     float64
		first, end int // want Samples[first:end]
	}{
		{2, 4, 1, 3},   // ends on samples: nothing outside
		{3, 5, 1, 5},   // ends between samples: one neighbour each side
		{4, 4, 2, 3},   // duplicate timestamp: the first one, as LocationAt
		{-5, 1, 0, 2},  // starts before the lifespan
		{7, 20, 4, 6},  // ends after it
		{-1, 99, 0, 6}, // covers it
	}
	for _, c := range cases {
		got := tr.Window(c.t0, c.t1)
		if want := tr.Samples[c.first:c.end]; !reflect.DeepEqual(got, want) {
			t.Errorf("Window(%v, %v) = %v, want %v", c.t0, c.t1, got, want)
		}
	}
	for _, w := range [][2]float64{{-3, -1}, {9, 12}, {5, 1}} {
		if got := tr.Window(w[0], w[1]); got != nil {
			t.Errorf("Window(%v, %v) = %v, want nil", w[0], w[1], got)
		}
	}
	if got := (&Trajectory{}).Window(0, 1); got != nil {
		t.Errorf("empty trajectory Window = %v, want nil", got)
	}
}

// randomSortedDB returns up to 12 irregularly sampled trajectories with
// time-sorted samples (gaps of 0 duplicate a timestamp; some trajectories
// have 0 or 1 samples) on a domain whose ticks land on samples, between
// them and past both ends of the lifespans.
func randomSortedDB(r *rand.Rand) *DB {
	gaps := []float64{0, 0.25, 0.5, 1, 1.5, 3, 7}
	db := &DB{Domain: TimeDomain{
		Start: float64(r.Intn(30)-20) / 2,
		Step:  []float64{0.25, 0.5, 1, 1.5}[r.Intn(4)],
		N:     r.Intn(60),
	}}
	for id := r.Intn(13); id > 0; id-- {
		tr := Trajectory{ID: ObjectID(id)}
		tm := float64(r.Intn(30)-10) / 2
		for k := r.Intn(21); k > 0; k-- {
			tr.Samples = append(tr.Samples, s(tm, r.Float64()*100, r.Float64()*100))
			tm += gaps[r.Intn(len(gaps))]
		}
		db.Trajs = append(db.Trajs, tr)
	}
	return db
}

// requireCursorMatches fails unless a Cursor reproduces DB.Snapshot — the
// LocationAt positions and ok flags, in trajectory order — at every tick
// of every per-tick Batches view of db: with a fresh cursor per view, as
// snapshot.Build gives each worker, with one cursor carried across the
// views, and with one walking the whole domain backwards, where it must
// search again at every tick.
func requireCursorMatches(t testing.TB, db *DB, per int) {
	t.Helper()
	var carried, back Cursor
	var want, got []ObjPoint
	check := func(c *Cursor, view *DB, i Tick, how string) {
		t.Helper()
		want = view.Snapshot(i, want)
		got = c.Snapshot(view, i, got)
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%s cursor, view from %v, tick %d (time %v): got %v, want %v\ntrajectories %v",
				how, view.Domain.Start, i, view.Domain.TimeOf(i), got, want, db.Trajs)
		}
	}
	for _, view := range db.Batches(per) {
		var fresh Cursor
		for i := 0; i < view.Domain.N; i++ {
			check(&fresh, view, Tick(i), "fresh")
			check(&carried, view, Tick(i), "carried")
		}
	}
	for i := db.Domain.N - 1; i >= 0; i-- {
		check(&back, db, Tick(i), "backward")
	}
}

// TestCursorMatchesLocationAt is the forward cursor's contract in the
// style of TestWindowPreservesLocationAt: random trajectories with
// duplicate timestamps and 0 or 1 samples, ticks exactly at and beyond the
// lifespan edges, and Batches views that start mid-trajectory.
func TestCursorMatchesLocationAt(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		db := randomSortedDB(r)
		requireCursorMatches(t, db, 1+r.Intn(8))
	}
	// Edges by hand: ticks at the first sample, on a duplicated timestamp,
	// at the last sample and one step past each end.
	db := &DB{
		Trajs:  []Trajectory{traj(1, s(1, 0, 0), s(2, 4, 0), s(2, 6, 0), s(2, 8, 0), s(4, 0, 8))},
		Domain: TimeDomain{Start: 0, Step: 1, N: 6},
	}
	requireCursorMatches(t, db, 2)
	var c Cursor
	if got := c.Snapshot(db, 2, nil); len(got) != 1 || got[0].P != (geo.Point{X: 4, Y: 0}) {
		t.Fatalf("duplicate timestamp at tick 2: got %v, want the first sample's (4, 0)", got)
	}
}

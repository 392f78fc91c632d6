package trajectory

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
)

// FuzzReadCSV asserts the ingestion boundary never panics and that
// anything it accepts survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("id,time,x,y\n1,0,10,20\n1,1,11,21\n")
	f.Add("0,0,0,0\n")
	f.Add("id,time,x,y\n")
	f.Add("")
	f.Add("1,not-a-number,2,3\n")
	f.Add("9223372036854775808,0,1,2\n") // id overflow
	f.Add("1,0,1e309,2\n")               // x overflow
	f.Add("a,b\nc,d\n")                  // wrong arity
	f.Fuzz(func(t *testing.T, in string) {
		trajs, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for i := range trajs {
			if !trajs[i].Sorted() {
				t.Fatalf("accepted unsorted trajectory %d", trajs[i].ID)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, trajs); err != nil {
			t.Fatalf("accepted data failed to serialise: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if len(again) != len(trajs) {
			t.Fatalf("round trip changed trajectory count: %d -> %d", len(trajs), len(again))
		}
	})
}

// FuzzLocationAt asserts interpolation never panics and never extrapolates
// beyond the lifespan, for arbitrary sample layouts.
func FuzzLocationAt(f *testing.F) {
	f.Add(0.0, 1.0, 2.0, 0.5)
	f.Add(5.0, 5.0, 5.0, 5.0) // duplicate timestamps
	f.Add(-1.0, 0.0, 1.0, 2.0)
	f.Fuzz(func(t *testing.T, t0, t1, t2, q float64) {
		tr := Trajectory{ID: 0}
		for _, tm := range []float64{t0, t1, t2} {
			tr.Samples = append(tr.Samples, Sample{Time: tm})
		}
		tr.SortSamples()
		p, ok := tr.LocationAt(q)
		start, end, _ := tr.Lifespan()
		if ok && (q < start || q > end) {
			t.Fatalf("extrapolated outside [%v,%v] at %v -> %v", start, end, q, p)
		}
		if !ok && q >= start && q <= end && !anyNaN(t0, t1, t2, q) {
			t.Fatalf("refused interpolation inside lifespan at %v", q)
		}
	})
}

func anyNaN(vs ...float64) bool {
	for _, v := range vs {
		if v != v {
			return true
		}
	}
	return false
}

// FuzzSnapshotMatchesLocationAt decodes up to four trajectories from raw
// (three bytes a sample: the trajectory in the low two bits and the gap
// to its previous sample, in quarter time units, in the rest of the first
// byte — 0 duplicates a timestamp — then x and y) and a domain, and
// requires the forward Cursor to reproduce DB.Snapshot at every tick of
// every Batches view, fresh, carried across views and walked backwards.
// The seeds put ticks on duplicate timestamps, exactly on and one step
// beyond lifespan edges, and start views mid-trajectory.
func FuzzSnapshotMatchesLocationAt(f *testing.F) {
	f.Add(0.0, 0.25, uint8(40), uint8(3), []byte{0x04, 1, 2, 0x00, 3, 4, 0x00, 5, 6, 0x11, 7, 8, 0x05, 9, 9, 0x21, 1, 1})
	f.Add(-1.0, 0.5, uint8(30), uint8(1), []byte{0x08, 0, 0, 0x08, 10, 0, 0x08, 20, 0, 0x0a, 1, 1, 0x0a, 2, 2})
	f.Add(0.75, 1.5, uint8(12), uint8(5), []byte{0x40, 9, 9, 0x00, 8, 8, 0xfc, 7, 7, 0x01, 1, 1, 0x02, 2, 2, 0x03, 3, 3})
	f.Add(2.0, 0.25, uint8(63), uint8(16), []byte{0x04, 1, 1})
	f.Fuzz(func(t *testing.T, start, step float64, n, per uint8, raw []byte) {
		if math.IsNaN(start) || math.IsInf(start, 0) || !(step > 0) || math.IsInf(step, 0) {
			return
		}
		db := &DB{Domain: TimeDomain{Start: start, Step: step, N: int(n % 64)}}
		db.Trajs = make([]Trajectory, 4)
		last := make([]float64, 4)
		for i := 0; i+3 <= len(raw) && i < 3*256; i += 3 {
			j := raw[i] & 3
			last[j] += float64(raw[i]>>2) / 4
			db.Trajs[j].ID = ObjectID(j)
			db.Trajs[j].Samples = append(db.Trajs[j].Samples, Sample{Time: last[j], P: geo.Point{X: float64(raw[i+1]), Y: float64(raw[i+2])}})
		}
		requireCursorMatches(t, db, 1+int(per%16))
	})
}

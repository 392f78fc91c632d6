package crowd

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/snapshot"
	"repro/internal/trajectory"
)

// mkCompareCrowd builds a crowd starting at start whose cluster at every
// tick has the same members, placed near base.
func mkCompareCrowd(start trajectory.Tick, ticks int, base geo.Point, ids ...trajectory.ObjectID) *Crowd {
	cls := make([]*snapshot.Cluster, 0, ticks)
	for t := 0; t < ticks; t++ {
		pts := make([]geo.Point, len(ids))
		for i, id := range ids {
			pts[i] = geo.Point{X: base.X + float64(id), Y: base.Y}
		}
		cls = append(cls, snapshot.NewCluster(start+trajectory.Tick(t), append([]trajectory.ObjectID(nil), ids...), pts))
	}
	return New(start, cls)
}

// TestCompareCrowdsOrdering checks Compare, the deterministic sort key
// of every snapshot answer.
func TestCompareCrowdsOrdering(t *testing.T) {
	site := geo.Point{X: 0, Y: 0}
	early := mkCompareCrowd(0, 4, site, 1, 2)
	late := mkCompareCrowd(2, 4, site, 1, 2)
	short := mkCompareCrowd(0, 3, site, 1, 2)
	other := mkCompareCrowd(0, 4, site, 1, 3)
	if Compare(early, late) >= 0 {
		t.Fatal("earlier start must sort first")
	}
	if Compare(short, early) >= 0 {
		t.Fatal("shorter lifetime must sort first at equal start")
	}
	if Compare(early, other) >= 0 {
		t.Fatal("smaller member IDs must sort first at equal span")
	}
	if Compare(early, early) != 0 {
		t.Fatal("a crowd must compare equal to itself")
	}
}

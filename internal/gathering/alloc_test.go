package gathering

import (
	"testing"

	"repro/internal/trajectory"
)

// TestDetectorTestAllocs pins the presizing in Detector.test: par is
// presized to the alive-candidate count, so the whole-crowd Test step
// performs exactly one allocation (the returned participator slice)
// instead of growing it through repeated append doublings.
func TestDetectorTestAllocs(t *testing.T) {
	const ticks, objs = 16, 64
	members := make([][]trajectory.ObjectID, ticks)
	for tk := range members {
		ids := make([]trajectory.ObjectID, objs)
		for i := range ids {
			ids[i] = trajectory.ObjectID(i)
		}
		members[tk] = ids
	}
	d := NewDetector(crowdFromMembers(members), Params{KC: 2, KP: 2, MP: 2})

	allocs := testing.AllocsPerRun(100, func() {
		par, invalid := d.test(0, d.n, d.all)
		if len(par) != objs || len(invalid) != 0 {
			t.Fatalf("test() = %d participators, %d invalid; want %d, 0", len(par), len(invalid), objs)
		}
	})
	// One allocation: the presized par slice. Growth via append would
	// show up as several more.
	if allocs > 1 {
		t.Errorf("Detector.test allocated %.0f times per call, want ≤ 1 (presized par)", allocs)
	}
}

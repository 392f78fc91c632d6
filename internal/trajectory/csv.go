package trajectory

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"repro/internal/geo"
)

// WriteCSV serialises the trajectories as CSV rows "id,time,x,y", one row
// per sample, ordered by object then time. The header row is always
// written. The time domain is not serialised; callers re-specify it when
// reading (it is an analysis choice, not a property of the data).
func WriteCSV(w io.Writer, trajs []Trajectory) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"id", "time", "x", "y"}); err != nil {
		return err
	}
	row := make([]string, 4)
	for i := range trajs {
		tr := &trajs[i]
		for _, s := range tr.Samples {
			row[0] = strconv.Itoa(int(tr.ID))
			row[1] = strconv.FormatFloat(s.Time, 'g', -1, 64)
			row[2] = strconv.FormatFloat(s.P.X, 'g', -1, 64)
			row[3] = strconv.FormatFloat(s.P.Y, 'g', -1, 64)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses trajectories from the CSV format produced by WriteCSV.
// Rows may arrive in any order; samples are grouped by id and sorted by
// time. A header row is skipped when present. A NaN or infinite time or
// coordinate is refused with the line that holds it: discovery is defined
// on finite positions and times only.
func ReadCSV(r io.Reader) ([]Trajectory, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	cr.ReuseRecord = true

	byID := make(map[ObjectID]*Trajectory)
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line++
		if line == 1 && rec[0] == "id" {
			continue // header
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("trajectory: line %d: bad id %q: %w", line, rec[0], err)
		}
		var v [3]float64 // time, x, y
		for j, name := range [3]string{"time", "x", "y"} {
			if v[j], err = parseFinite(rec[j+1]); err != nil {
				return nil, fmt.Errorf("trajectory: line %d: bad %s %q: %w", line, name, rec[j+1], err)
			}
		}
		tr := byID[ObjectID(id)]
		if tr == nil {
			tr = &Trajectory{ID: ObjectID(id)}
			byID[ObjectID(id)] = tr
		}
		tr.Samples = append(tr.Samples, Sample{Time: v[0], P: geo.Point{X: v[1], Y: v[2]}})
	}

	out := make([]Trajectory, 0, len(byID))
	for _, tr := range byID {
		tr.SortSamples()
		out = append(out, *tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// parseFinite parses one numeric CSV field, refusing NaN and ±Inf, which
// strconv.ParseFloat accepts.
func parseFinite(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = errors.New("not a finite number")
	}
	return v, err
}

// LoadCSV reads the CSV file at path into a database whose domain starts
// at the earliest sample and has ticks ticks of width step. It refuses a
// non-positive tick count or step, a file with no trajectories, and
// anything DB.Validate refuses.
func LoadCSV(path string, ticks int, step float64) (*DB, error) {
	if ticks <= 0 {
		return nil, fmt.Errorf("trajectory: tick count must be positive, got %d", ticks)
	}
	if !(step > 0) {
		return nil, fmt.Errorf("trajectory: step must be positive, got %v", step)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	trajs, err := ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if len(trajs) == 0 {
		return nil, fmt.Errorf("trajectory: no trajectories in %s", path)
	}
	start := math.Inf(1)
	for i := range trajs {
		if s, _, ok := trajs[i].Lifespan(); ok && s < start {
			start = s
		}
	}
	db := &DB{Trajs: trajs, Domain: TimeDomain{Start: start, Step: step, N: ticks}}
	return db, db.Validate()
}

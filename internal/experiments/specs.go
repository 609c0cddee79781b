// Swept experiments (E12–E20) are defined once, as the versioned
// sweep.Spec documents committed under specs/ at the repository root.
// The runners here load the embedded copy and run it; `qsim sweep -f
// specs/<file>` replays the same bytes, and the CI spec-replay job
// diffs each replay against its golden CSV under specs/golden/. To
// change an experiment, edit its document and regenerate its golden.
package experiments

import (
	"fmt"

	"repro/internal/sweep"
	"repro/specs"
)

// loadSpec reads the committed document file ("e13_sweep_modes.json")
// and returns its grid.
func loadSpec(file string) (sweep.Grid, error) {
	f, err := specs.FS.Open(file)
	if err != nil {
		return sweep.Grid{}, fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	sp, err := sweep.LoadSpec(f)
	if err != nil {
		return sweep.Grid{}, fmt.Errorf("experiments: %s: %w", file, err)
	}
	return sp.Grid, nil
}

// runSpec runs the committed document file. Every runner reaches its
// document through it, so the tests can run each document once and
// share the outcome between the table checks and the golden diff.
var runSpec = func(file string) (*sweep.Outcome, error) {
	g, err := loadSpec(file)
	if err != nil {
		return nil, err
	}
	return sweep.Run(sweep.Config{Grid: g})
}

// rankedTable is the runner of an experiment whose table is its
// sweep's own ranking (sweep.Header, sweep.Row): it runs the document
// file and prefixes notes with the grid's shape.
func rankedTable(id, file, title, notes string) func() (Table, error) {
	return func() (Table, error) {
		g, err := loadSpec(file)
		if err != nil {
			return Table{}, err
		}
		out, err := runSpec(file)
		if err != nil {
			return Table{}, err
		}
		t := Table{
			ID:        id,
			Title:     title,
			Header:    sweep.Header(),
			EventsRun: sumEvents(out),
			Notes:     g.Describe() + "; " + notes,
		}
		for i, r := range out.Ranked() {
			if r.Err != nil {
				return t, r.Err
			}
			t.Rows = append(t.Rows, sweep.Row(i+1, r))
		}
		return t, nil
	}
}

// byTrace groups a sweep's cells by trace, traces in expansion order
// and cells in expansion order within each. Expansion normalises trace
// names, so they are read back off the cells rather than re-derived.
func byTrace(out *sweep.Outcome) [][]sweep.CellResult {
	var groups [][]sweep.CellResult
	index := map[string]int{}
	for _, r := range out.Results {
		i, ok := index[r.Cell.Trace.Name]
		if !ok {
			i = len(groups)
			index[r.Cell.Trace.Name] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups
}

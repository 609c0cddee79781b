// Spec-document emission: every recorded sweep experiment (E12–E17, E19, E20)
// publishes its grid as a versioned sweep.Spec document, committed
// under specs/ at the repository root. The documents are the
// reproducibility artifacts — `qsim sweep -f specs/<file>` replays a
// recorded experiment exactly, the CI spec-replay job diffs each
// replay against a committed golden CSV, and a test pins the committed
// documents against the grids in this package so they cannot drift.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/sweep"
)

// SpecFile pairs a recorded experiment's sweep document with its
// committed artifact filename.
type SpecFile struct {
	// File is the document's basename under specs/ ("e12_mix_sweep.json").
	File string
	Spec sweep.Spec
}

// SpecFiles returns the recorded sweep experiments' grids as versioned
// spec documents, in experiment order.
func SpecFiles() ([]SpecFile, error) {
	e14, err := E14Grid()
	if err != nil {
		return nil, err
	}
	e15, err := E15Grid()
	if err != nil {
		return nil, err
	}
	e20, err := E20Grid()
	if err != nil {
		return nil, err
	}
	return []SpecFile{
		{"e12_mix_sweep.json", sweep.Spec{Version: sweep.SpecVersion, Name: "E12 hybrid vs static across demand mixes", Grid: E12Grid()}},
		{"e13_sweep_modes.json", sweep.Spec{Version: sweep.SpecVersion, Name: "E13 cluster mode vs offered load", Grid: E13Grid()}},
		{"e14_routing_policies.json", sweep.Spec{Version: sweep.SpecVersion, Name: "E14 campus-grid routing policies", Grid: e14}},
		{"e15_policy_suite.json", sweep.Spec{Version: sweep.SpecVersion, Name: "E15 adaptive OS-switching policy suite", Grid: e15}},
		{"e16_sched_policies.json", sweep.Spec{Version: sweep.SpecVersion, Name: "E16 FCFS vs EASY backfill", Grid: E16Grid()}},
		{"e17_metro_scale.json", sweep.Spec{Version: sweep.SpecVersion, Name: "E17 metro scale tier", Grid: E17Grid()}},
		{"e19_swf_replay.json", sweep.Spec{Version: sweep.SpecVersion, Name: "E19 SWF replay", Grid: E19Grid()}},
		{"e20_metro_policies.json", sweep.Spec{Version: sweep.SpecVersion, Name: "E20 metro policy tier", Grid: e20}},
	}, nil
}

// WriteSpecs serialises every recorded experiment document into dir
// (cmd/benchtab -specs regenerates the committed specs/ artifacts with
// it).
func WriteSpecs(dir string) error {
	files, err := SpecFiles()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, sf := range files {
		b, err := sweep.MarshalSpec(sf.Spec)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", sf.File, err)
		}
		if err := os.WriteFile(filepath.Join(dir, sf.File), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

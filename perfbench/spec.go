package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/sweep"
)

// specDoc renders a versioned sweep spec document (the format qsim sweep
// -f and qsim serve accept) for the given grid keys and base seed.
func specDoc(name string, grid map[string]string, seed int64) []byte {
	doc := struct {
		SpecVersion int               `json:"spec_version"`
		Name        string            `json:"name"`
		Grid        map[string]string `json:"grid"`
		Seeds       struct {
			Base int64 `json:"base"`
		} `json:"seeds"`
		Cycle string `json:"cycle"`
	}{SpecVersion: 1, Name: name, Grid: grid, Cycle: "5m0s"}
	doc.Seeds.Base = seed
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and integers always marshal
	}
	return b
}

// reformat re-renders a JSON document with other whitespace and every
// object's keys in reverse order: the same spec to sweep.LoadSpec, other
// bytes on the wire.
func reformat(doc []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := writeReversed(&b, v, "\n"); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func writeReversed(b *bytes.Buffer, v any, indent string) error {
	obj, ok := v.(map[string]any)
	if !ok {
		leaf, err := json.Marshal(v)
		b.Write(leaf)
		return err
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(keys)))
	b.WriteString("{")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ,")
		}
		fmt.Fprintf(b, "%s\t%q :\t", indent, k)
		if err := writeReversed(b, obj[k], indent+"\t"); err != nil {
			return err
		}
	}
	b.WriteString(indent + "}")
	return nil
}

// loadSpec parses a spec document and returns it with its content
// address.
func loadSpec(doc []byte) (sweep.Spec, string, error) {
	sp, err := sweep.LoadSpec(bytes.NewReader(doc))
	if err != nil {
		return sweep.Spec{}, "", err
	}
	hash, err := sweep.SpecHash(sp)
	return sp, hash, err
}

// renderCSV renders sweep results exactly as qsim sweep -csv and the
// service's result endpoint do.
func renderCSV(results []sweep.CellResult) ([]byte, error) {
	var b bytes.Buffer
	out := sweep.Outcome{Results: results}
	err := export.WriteSweepCSV(&b, out.Rows())
	return b.Bytes(), err
}

// localSweep runs a spec document through sweep.Run with one worker and
// renders its CSV: the reference a served result must equal.
func localSweep(doc []byte) ([]byte, []core.Result, error) {
	sp, _, err := loadSpec(doc)
	if err != nil {
		return nil, nil, err
	}
	o, err := sweep.Run(sweep.Config{Grid: sp.Grid, Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	res := make([]core.Result, len(o.Results))
	for i, r := range o.Results {
		if r.Err != nil {
			return nil, nil, fmt.Errorf("cell %s: %w", r.Cell.Name(), r.Err)
		}
		res[i] = r.Res
	}
	csv, err := renderCSV(o.Results)
	return csv, res, err
}

// goldenRow returns the header and the named row of a committed golden
// CSV under specs/golden.
func goldenRow(root, file, cell string) (header, row string, err error) {
	b, err := os.ReadFile(filepath.Join(root, "specs", "golden", file))
	if err != nil {
		return "", "", err
	}
	lines := strings.Split(string(b), "\n")
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, cell+",") {
			return lines[0], l, nil
		}
	}
	return "", "", fmt.Errorf("%s has no row %s", file, cell)
}

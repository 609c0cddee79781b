package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseGridSpec throws arbitrary compact-notation strings at the
// grid-spec parser. The parser must never panic, and every grid it
// accepts must round-trip: GridString can serialise it, the result
// reparses, and a second GridString reproduces the first byte for byte
// (the canonical form is a fixed point). The seed corpus is the
// committed experiment spec documents, reassembled into the compact
// notation exactly as LoadSpec does, plus the package doc's examples
// and some deliberately broken specs.
func FuzzParseGridSpec(f *testing.F) {
	for _, spec := range seedSpecsFromDocs(f) {
		f.Add(spec)
	}
	f.Add("modes=hybrid-v2,static-split;nodes=8,16;winfracs=0.25,0.5;failrates=0,0.05")
	f.Add("traces=swf:specs/pwa_sample_1k.swf;swfmaxjobs=100;swftime=requested")
	f.Add("policies=fcfs;hours=8") // deprecated alias still parses
	f.Add("modes=;nodes=8")
	f.Add("nodes=8;nodes=16")
	f.Add("=;;==;winfracs=2")
	f.Add("mmppdwell=-1h;think=1ns;users=0")

	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseGridSpec(spec)
		if err != nil {
			return
		}
		canon, err := GridString(g)
		if err != nil {
			t.Fatalf("accepted spec %q produced an inexpressible grid: %v", spec, err)
		}
		back, err := ParseGridSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not reparse: %v", canon, spec, err)
		}
		canon2, err := GridString(back)
		if err != nil {
			t.Fatalf("reparsed canonical form %q does not reserialise: %v", canon, err)
		}
		if canon2 != canon {
			t.Fatalf("canonical form is not a fixed point: %q reparsed to %q", canon, canon2)
		}
	})
}

// FuzzLoadSpec throws arbitrary bytes at the spec-document loader, the
// parser behind `qsim run -f`, `qsim sweep -f` and the documents `qsim
// serve` accepts over HTTP. The loader must never panic, and every
// document it accepts must survive MarshalSpec → LoadSpec with an
// equal SpecHash, the key of the service's result cache. The seed
// corpus is every committed spec document plus some broken ones.
func FuzzLoadSpec(f *testing.F) {
	paths, err := filepath.Glob("../../specs/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed spec documents: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"spec_version": 1, "grid": {}}`))
	f.Add([]byte(`{"spec_version": 2, "grid": {"nodes": "8"}}`))
	f.Add([]byte(`{"spec_version": 1, "grid": {"nodes": "8;modes=static-split"}}`))
	f.Add([]byte(`{"spec_version": 1, "grid": {"seed": "3"}, "cycle": "-1s"}`))
	f.Add([]byte(`{"spec_version": 1, "grid": {"policies": "fcfs"}, "seeds": {"base": -7}, "horizon": "8h"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := LoadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		canon, err := MarshalSpec(sp)
		if err != nil {
			t.Fatalf("accepted document has no canonical form: %v\n%s", err, data)
		}
		back, err := LoadSpec(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form does not reload: %v\n%s", err, canon)
		}
		want, _ := SpecHash(sp)
		got, err := SpecHash(back)
		if err != nil || got != want {
			t.Fatalf("reloaded spec hashes %s (%v), want %s\n%s", got, err, want, canon)
		}
	})
}

// seedSpecsFromDocs rebuilds each committed spec document's compact
// grid notation — grid keys in file order plus the hoisted scalars —
// to seed the fuzzer with every axis combination the repo actually
// exercises.
func seedSpecsFromDocs(f *testing.F) []string {
	paths, err := filepath.Glob("../../specs/*.json")
	if err != nil || len(paths) == 0 {
		return nil
	}
	var specs []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Logf("seed %s: %v", path, err)
			continue
		}
		var doc struct {
			Grid    map[string]string `json:"grid"`
			Seeds   *struct{ Base int64 }
			Cycle   string `json:"cycle"`
			Horizon string `json:"horizon"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			f.Logf("seed %s: %v", path, err)
			continue
		}
		var fields []string
		for _, key := range SpecKeys() {
			if val, ok := doc.Grid[key]; ok {
				fields = append(fields, key+"="+val)
			}
		}
		if doc.Seeds != nil {
			fields = append(fields, fmt.Sprintf("seed=%d", doc.Seeds.Base))
		}
		if doc.Cycle != "" {
			fields = append(fields, "cycle="+doc.Cycle)
		}
		if doc.Horizon != "" {
			fields = append(fields, "horizon="+doc.Horizon)
		}
		if len(fields) > 0 {
			specs = append(specs, strings.Join(fields, ";"))
		}
	}
	return specs
}

package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// specHashGoldens pins the content address of every committed spec
// document. These are load-bearing constants: the service layer keys
// its result cache on SpecHash, so a refactor that perturbs
// MarshalSpec's canonical form — reordered keys, changed indentation,
// a default that starts serialising — would silently orphan every
// cached result. If this test fails, the canonical form changed:
// either fix the regression or deliberately accept the new hashes
// (and the cache invalidation they imply) by updating the table.
var specHashGoldens = map[string]string{
	"e12_mix_sweep.json":        "4055c12171b5d7879e98fd290cc02494a454d7de5bf189d7cc059db8d28364b8",
	"e13_sweep_modes.json":      "04e6dab60e9d9044796888acb9ae7d15d25681462081442f654b4def1e89b773",
	"e14_routing_policies.json": "d89d608d87ecc08efcf6531af550024d7afab08e5521502f3006862279336021",
	"e15_policy_suite.json":     "91624d6322b25e393445f35a364b130c0ba2b6e1d209990edb56b2be440c493d",
	"e16_sched_policies.json":   "89e887356af49723253f2933aee1387d2de9a243eb0cc658e6a283c7290b8b65",
	"e17_metro_scale.json":      "c6d4eee4419ed88c420dbc75bb01744c663467da6ef7304b81c9ebedf0ccea6e",
	"e18_city_scale.json":       "cd41f838535297884ed9e415adc4b3d54598a84c4a4286a4e9feaff38545abba",
	"e19_swf_replay.json":       "1912480f8fa4a7c10ca574fca896fafb0dc5616657cbe9fe2835adf79d8dda2e",
	"e20_metro_policies.json":   "e17211c32ebec5edb1c72b33b42d8a12f764c24e05ee13fd83173ecb6899e200",
}

// TestSpecHashGoldenValues also holds every committed document to
// canonical form (MarshalSpec of what LoadSpec read is the file, byte
// for byte) with no deprecated keys: the documents are the experiments'
// only definition, so nothing else keeps them tidy.
func TestSpecHashGoldenValues(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(specHashGoldens) {
		t.Fatalf("specs/ holds %d documents, golden table has %d — add the new document's hash",
			len(paths), len(specHashGoldens))
	}
	for _, path := range paths {
		base := filepath.Base(path)
		want, ok := specHashGoldens[base]
		if !ok {
			t.Errorf("specs/%s has no golden hash", base)
			continue
		}
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := LoadSpec(bytes.NewReader(committed))
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		if len(sp.Warnings) != 0 {
			t.Errorf("%s: committed document uses deprecated keys: %v", base, sp.Warnings)
		}
		canonical, err := MarshalSpec(sp)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		if !bytes.Equal(canonical, committed) {
			t.Errorf("%s is not canonical; rewrite it as MarshalSpec renders it:\n%s", base, canonical)
		}
		got, err := SpecHash(sp)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		if got != want {
			t.Errorf("%s: SpecHash = %s, want %s (canonical form changed — see specHashGoldens)", base, got, want)
		}
	}
}

// The committed documents are canonical (SaveSpec output), so loading
// one and hashing it must equal hashing the raw file bytes — the
// property that lets a submitted document of any formatting land on
// the same cache entry as its canonical twin.
func TestSpecHashIsHashOfCanonicalBytes(t *testing.T) {
	path := filepath.Join("..", "..", "specs", "e13_sweep_modes.json")
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := LoadSpec(bytes.NewReader(committed))
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := MarshalSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical, committed) {
		t.Fatal("committed e13 document is not canonical; SpecHash goldens assume SaveSpec output")
	}
	// Reformat the document (different whitespace, same content): the
	// hash must not move.
	reformatted := bytes.ReplaceAll(committed, []byte("\n  "), []byte("\n      "))
	sp2, err := LoadSpec(bytes.NewReader(reformatted))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := SpecHash(sp)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := SpecHash(sp2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("reformatting the document moved the hash: %s vs %s", h1, h2)
	}
}

package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// SpecVersion is the sweep/scenario document version this build reads
// and writes. Loading a document with any other spec_version is an
// error, so a future incompatible format can never be half-parsed.
const SpecVersion = 1

// Spec is a versioned, replayable experiment document: a sweep grid
// plus its seeds and horizon, serialised as JSON. A saved document is
// a committed artifact — `qsim run -f` / `qsim sweep -f` replay it,
// and each swept experiment in internal/experiments runs its committed
// document under specs/ — so every recorded result is reproducible
// from a file instead of a flag incantation.
//
// The canonical on-disk form is stable: SaveSpec always emits the same
// bytes for the same grid (keys in axis-registry order, two-space
// indentation, trailing newline), and SaveSpec∘LoadSpec is the
// identity on canonical documents.
type Spec struct {
	// Version is the document's spec_version (SpecVersion on save).
	Version int
	// Name labels the experiment ("" omits the field).
	Name string
	// Grid is the materialised sweep grid.
	Grid Grid
	// Warnings carries non-fatal loader diagnostics (deprecated axis
	// aliases); never serialised.
	Warnings []string
}

// specDocJSON is the document wire shape. Grid axis values are the
// compact notation's comma-lists keyed by registry key; the scalar
// keys (seed, cycle, horizon) are hoisted to the document top level.
type specDocJSON struct {
	Version *int                       `json:"spec_version"`
	Name    string                     `json:"name,omitempty"`
	Grid    map[string]json.RawMessage `json:"grid"`
	Seeds   *specSeedsJSON             `json:"seeds,omitempty"`
	Cycle   string                     `json:"cycle,omitempty"`
	Horizon string                     `json:"horizon,omitempty"`
}

type specSeedsJSON struct {
	Base int64 `json:"base"`
}

// hoistedKeys are the grid-spec scalars that live at the document top
// level instead of inside the grid object.
var hoistedKeys = map[string]string{
	"seed":    `"seeds": {"base": ...}`,
	"cycle":   `"cycle"`,
	"horizon": `"horizon"`,
}

// LoadSpec parses a sweep/scenario document. Unknown top-level fields,
// unknown grid axis keys (the error lists the valid set) and unknown
// spec_versions are errors; deprecated axis aliases parse but surface
// in Spec.Warnings.
func LoadSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc specDocJSON
	if err := dec.Decode(&doc); err != nil {
		return Spec{}, fmt.Errorf("sweep: spec document: %w", err)
	}
	if doc.Version == nil {
		return Spec{}, fmt.Errorf("sweep: spec document has no spec_version (valid: %d)", SpecVersion)
	}
	if *doc.Version != SpecVersion {
		return Spec{}, fmt.Errorf("sweep: unsupported spec_version %d (valid: %d)", *doc.Version, SpecVersion)
	}
	// Reassemble the grid object into compact notation, keys in
	// registry order so diagnostics and repeated-key checks are
	// deterministic; the axis registry then does all validation.
	var fields []string
	seen := 0
	for _, ax := range registry {
		for _, key := range []string{ax.Key, ax.Alias} {
			if key == "" {
				continue
			}
			raw, ok := doc.Grid[key]
			if !ok {
				continue
			}
			if hoisted, is := hoistedKeys[key]; is {
				return Spec{}, fmt.Errorf("sweep: spec document grid key %q belongs at the document top level as %s", key, hoisted)
			}
			var val string
			if err := json.Unmarshal(raw, &val); err != nil {
				return Spec{}, fmt.Errorf("sweep: spec document grid key %q: value must be a string of comma-separated values", key)
			}
			// The values are joined into compact notation below; a
			// separator inside one could smuggle in extra keys.
			if strings.Contains(val, ";") {
				return Spec{}, fmt.Errorf("sweep: spec document grid key %q: value must not contain \";\"", key)
			}
			fields = append(fields, key+"="+val)
			seen++
		}
	}
	if seen != len(doc.Grid) {
		for key := range doc.Grid {
			if ax, _ := axisByKey(key); ax == nil {
				return Spec{}, fmt.Errorf("sweep: spec document: unknown grid axis key %q (valid: %s)",
					key, strings.Join(SpecKeys(), " | "))
			}
		}
	}
	g, warnings, err := ParseGridSpecWarn(strings.Join(fields, ";"))
	if err != nil {
		return Spec{}, err
	}
	if doc.Seeds != nil {
		g.BaseSeed = doc.Seeds.Base
	}
	if doc.Cycle != "" {
		d, err := time.ParseDuration(doc.Cycle)
		if err != nil || d <= 0 {
			return Spec{}, fmt.Errorf("sweep: spec document: bad cycle %q", doc.Cycle)
		}
		g.Cycle = d
	}
	if doc.Horizon != "" {
		d, err := time.ParseDuration(doc.Horizon)
		if err != nil || d <= 0 {
			return Spec{}, fmt.Errorf("sweep: spec document: bad horizon %q", doc.Horizon)
		}
		g.Horizon = d
	}
	return Spec{Version: SpecVersion, Name: doc.Name, Grid: g, Warnings: warnings}, nil
}

// SaveSpec writes the canonical serialisation of a spec: fixed field
// order, grid axis keys in registry order, two-space indentation and a
// trailing newline. Saving what LoadSpec read reproduces a canonical
// document byte for byte. It errors when the grid cannot be expressed
// in spec notation (custom traces, bespoke topologies).
func SaveSpec(w io.Writer, sp Spec) error {
	b, err := MarshalSpec(sp)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// MarshalSpec renders the canonical document bytes for SaveSpec.
func MarshalSpec(sp Spec) ([]byte, error) {
	// Grid fields with no document representation must refuse to
	// serialise — silently dropping one would make the "replayable
	// artifact" replay a different experiment.
	if sp.Grid.InitialLinux != 0 {
		return nil, fmt.Errorf("sweep: InitialLinux is not expressible in a spec document")
	}
	var buf bytes.Buffer
	buf.WriteString("{\n")
	buf.WriteString(fmt.Sprintf("  \"spec_version\": %d", SpecVersion))
	if sp.Name != "" {
		name, _ := json.Marshal(sp.Name)
		buf.WriteString(",\n  \"name\": " + string(name))
	}
	buf.WriteString(",\n  \"grid\": {")
	first := true
	for _, ax := range registry {
		if _, hoisted := hoistedKeys[ax.Key]; hoisted {
			continue
		}
		val, err := ax.Format(sp.Grid)
		if err != nil {
			return nil, err
		}
		if val == "" {
			continue
		}
		if !first {
			buf.WriteString(",")
		}
		first = false
		enc, _ := json.Marshal(val)
		buf.WriteString(fmt.Sprintf("\n    %q: %s", ax.Key, enc))
	}
	buf.WriteString("\n  }")
	if sp.Grid.BaseSeed != 0 {
		buf.WriteString(fmt.Sprintf(",\n  \"seeds\": {\n    \"base\": %d\n  }", sp.Grid.BaseSeed))
	}
	if sp.Grid.Cycle > 0 {
		buf.WriteString(fmt.Sprintf(",\n  \"cycle\": %q", sp.Grid.Cycle.String()))
	}
	if sp.Grid.Horizon > 0 {
		buf.WriteString(fmt.Sprintf(",\n  \"horizon\": %q", sp.Grid.Horizon.String()))
	}
	buf.WriteString("\n}\n")
	return buf.Bytes(), nil
}

// Package specs holds the committed experiment documents: one
// versioned sweep spec per swept experiment (E12–E20), each the only
// definition of its grid. internal/experiments runs them from the
// embedded copy, `qsim sweep -f specs/<file>.json` replays them from
// disk, and each replays at workers=1 to its golden CSV under golden/.
package specs

import "embed"

// FS holds every committed *.json document, by basename.
//
//go:embed *.json
var FS embed.FS

// Package osid defines the operating-system identity shared by every
// layer of the hybrid cluster: disks are formatted for an OS, nodes
// boot an OS, jobs require an OS, and the dual-boot controller moves
// nodes between the two sides.
package osid

import (
	"fmt"
	"strings"
)

// OS identifies one of the two bootable operating systems of the
// bi-stable hybrid cluster, or the absence of one.
type OS uint8

const (
	// None means no OS: an unbooted node or an unformatted partition.
	None OS = iota
	// Linux is the CentOS + OSCAR side of the hybrid.
	Linux
	// Windows is the Windows HPC Server 2008 R2 side.
	Windows
)

// String returns the lower-case name used throughout configuration
// files and logs ("linux", "windows", "none").
func (o OS) String() string {
	switch o {
	case Linux:
		return "linux"
	case Windows:
		return "windows"
	default:
		return "none"
	}
}

// Other returns the opposite side of the hybrid. Other(None) is None.
func (o OS) Other() OS {
	switch o {
	case Linux:
		return Windows
	case Windows:
		return Linux
	default:
		return None
	}
}

// Valid reports whether o is Linux or Windows.
func (o OS) Valid() bool { return o == Linux || o == Windows }

// Parse converts a name to an OS. It accepts the spellings used in the
// paper's artifacts: "linux"/"l", "windows"/"win"/"w", case-insensitive.
func Parse(s string) (OS, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "linux", "l", "lin":
		return Linux, nil
	case "windows", "win", "w":
		return Windows, nil
	case "none", "":
		return None, nil
	default:
		// The clone keeps s itself from escaping, so a caller can pass a
		// name converted from bytes without a heap copy.
		return None, fmt.Errorf("osid: unknown OS %q", strings.Clone(s))
	}
}

// FromTitleSuffix infers the OS from a GRUB menu entry title using the
// paper's naming convention, where titles end in "-linux" or
// "-windows" (e.g. "CentOS-5.4_Oscar-5b2-linux",
// "Win_Server_2K8_R2-windows"). It returns None when no suffix matches.
func FromTitleSuffix(title string) OS {
	t := strings.ToLower(strings.TrimSpace(title))
	switch {
	case strings.HasSuffix(t, "-linux"):
		return Linux
	case strings.HasSuffix(t, "-windows"):
		return Windows
	default:
		return None
	}
}

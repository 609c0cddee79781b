// Package deploy reproduces the deployment machinery of
// dualboot-oscar: the OSCAR disk layout file (ide.disk) with v2's
// `skip` label, the Windows HPC diskpart.txt scripts (Figures 9, 10
// and 15), and reimaging engines for both operating systems that
// operate on the simulated disks — including the v1 failure mode where
// a Windows reimage rewrites the MBR, destroys GRUB and forces a Linux
// reinstall.
package deploy

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hardware"
)

// LayoutKind classifies an ide.disk line.
type LayoutKind uint8

const (
	// KindPartition is an on-disk partition (/dev/sdaN).
	KindPartition LayoutKind = iota
	// KindVirtual is a non-disk filesystem line (tmpfs, nfs) that
	// systemimager writes into fstab but that allocates no disk space.
	KindVirtual
)

// LayoutEntry is one parsed ide.disk line.
type LayoutEntry struct {
	Kind       LayoutKind
	Device     string // "/dev/sda1" or "nfs_oscar:/home"
	Index      int    // partition number for KindPartition
	SizeMB     int64  // -1 for "*" (rest of disk)
	TypeName   string // ext3, swap, skip, tmpfs, nfs
	MountPoint string
	Options    string
	Bootable   bool
}

// Skip reports whether the entry reserves space without formatting —
// the v2 patch that protects the Windows partition during a Linux
// reimage ("The first partition with label skip will be reserved for
// Windows").
func (e LayoutEntry) Skip() bool { return e.TypeName == "skip" }

// Layout is a parsed ide.disk file.
type Layout struct {
	Entries []LayoutEntry
}

// Partitions returns the on-disk entries in file order.
func (l *Layout) Partitions() []LayoutEntry {
	var out []LayoutEntry
	for _, e := range l.Entries {
		if e.Kind == KindPartition {
			out = append(out, e)
		}
	}
	return out
}

// HasSkip reports whether any partition uses the v2 skip label.
func (l *Layout) HasSkip() bool {
	for _, e := range l.Entries {
		if e.Kind == KindPartition && e.Skip() {
			return true
		}
	}
	return false
}

// BootPartition returns the index of the bootable partition (where
// /boot and GRUB's menu.lst live), or 0 when none is marked.
func (l *Layout) BootPartition() int {
	for _, e := range l.Entries {
		if e.Kind == KindPartition && e.Bootable {
			return e.Index
		}
	}
	return 0
}

// ParseIdeDisk parses an ide.disk file. Figure 14's v2 layout parses
// verbatim:
//
//	/dev/sda1     16000     skip
//	/dev/sda2     100       ext3    /boot    defaults    bootable
//	/dev/sda5     512       swap
//	/dev/sda6     *         ext3    /        defaults
//	/dev/shm      -         tmpfs   /dev/shm defaults
//	nfs_oscar:/home  -      nfs     /home    rw
func ParseIdeDisk(text string) (*Layout, error) {
	l := &Layout{}
	seen := map[int]bool{}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("deploy: ide.disk line %d: want at least device/size/type, got %q", lineNo+1, line)
		}
		e := LayoutEntry{Device: fields[0], TypeName: strings.ToLower(fields[2])}

		switch fields[1] {
		case "*":
			e.SizeMB = -1
		case "-":
			e.SizeMB = 0
		default:
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("deploy: ide.disk line %d: bad size %q", lineNo+1, fields[1])
			}
			e.SizeMB = n
		}
		if len(fields) > 3 {
			e.MountPoint = fields[3]
		}
		if len(fields) > 4 {
			e.Options = fields[4]
		}
		if len(fields) > 4 {
			for _, f := range fields[4:] {
				if f == "bootable" {
					e.Bootable = true
				}
			}
		}

		if idx, ok := partitionIndex(e.Device); ok {
			e.Kind = KindPartition
			e.Index = idx
			if seen[idx] {
				return nil, fmt.Errorf("deploy: ide.disk line %d: duplicate partition %s", lineNo+1, e.Device)
			}
			seen[idx] = true
			switch e.TypeName {
			case "ext3", "swap", "skip", "ntfs", "fat":
			default:
				return nil, fmt.Errorf("deploy: ide.disk line %d: unsupported partition type %q", lineNo+1, e.TypeName)
			}
			if e.SizeMB == 0 {
				return nil, fmt.Errorf("deploy: ide.disk line %d: partition needs a size", lineNo+1)
			}
		} else {
			e.Kind = KindVirtual
		}
		l.Entries = append(l.Entries, e)
	}
	if len(l.Partitions()) == 0 {
		return nil, fmt.Errorf("deploy: ide.disk defines no partitions")
	}
	return l, nil
}

// partitionIndex extracts N from /dev/sdaN or /dev/hdaN.
func partitionIndex(device string) (int, bool) {
	for _, prefix := range []string{"/dev/sda", "/dev/hda"} {
		if after, ok := strings.CutPrefix(device, prefix); ok {
			n, err := strconv.Atoi(after)
			if err == nil && n >= 1 {
				return n, true
			}
		}
	}
	return 0, false
}

// Render writes the layout back out in ide.disk format.
func (l *Layout) Render() string {
	var b strings.Builder
	for _, e := range l.Entries {
		size := strconv.FormatInt(e.SizeMB, 10)
		if e.SizeMB == -1 {
			size = "*"
		}
		if e.SizeMB == 0 {
			size = "-"
		}
		fmt.Fprintf(&b, "%s\t%s\t%s", e.Device, size, e.TypeName)
		if e.MountPoint != "" {
			fmt.Fprintf(&b, "\t%s", e.MountPoint)
		}
		if e.Options != "" {
			fmt.Fprintf(&b, "\t%s", e.Options)
		}
		if e.Bootable {
			b.WriteString("\tbootable")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// V1IdeDisk is the initial dual-boot layout: Windows on sda1 (listed
// so space is reserved, but v1 has no skip support — it is created
// unformatted and Windows must be installed first), /boot on sda2,
// swap on sda5, the shared FAT control partition on sda6, and the
// Linux root on sda7.
const V1IdeDisk = `/dev/sda1	150000	ntfs
/dev/sda2	100	ext3	/boot	defaults	bootable
/dev/sda5	512	swap
/dev/sda6	100	fat	/boot/swap	defaults
/dev/sda7	*	ext3	/	defaults
/dev/shm	-	tmpfs	/dev/shm	defaults
nfs_oscar:/home	-	nfs	/home	rw
`

// V2IdeDisk is Figure 14 verbatim: the skip label protects Windows and
// the FAT partition is gone (PXE took over boot control).
const V2IdeDisk = `/dev/sda1	16000	skip
/dev/sda2	100	ext3	/boot	defaults	bootable
/dev/sda5	512	swap
/dev/sda6	*	ext3	/	defaults
/dev/shm	-	tmpfs	/dev/shm	defaults
nfs_oscar:/home	-	nfs	/home	rw
`

// fsTypeFor maps an ide.disk type name onto the hardware model.
func fsTypeFor(name string) hardware.FSType {
	switch name {
	case "ext3":
		return hardware.FSExt3
	case "swap":
		return hardware.FSSwap
	case "fat":
		return hardware.FSFAT
	case "ntfs":
		return hardware.FSNTFS
	default:
		return hardware.FSNone
	}
}

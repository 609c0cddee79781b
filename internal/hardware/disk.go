// Package hardware models the commodity PCs the paper's cluster was
// built from: a node with CPU cores and a NIC, a single IDE/SATA disk
// with an MBR partition table, and simulated filesystems that hold the
// configuration files the dual-boot machinery reads and writes.
//
// The model is deliberately file-level, not block-level: the behaviour
// the middleware depends on is "who owns the MBR", "which partition
// holds controlmenu.lst" and "does reimaging Windows destroy the Linux
// partitions", all of which are partition-table and file-map questions.
//
// A cluster provisions one prototype disk and gives every node a
// Clone of it, as systemimager pushes one image to many nodes. A clone
// has its own MBR and partition table, but its partitions' file maps
// are shared with the disk it was cloned from until one side writes:
// WriteFile and RemoveFile first copy a shared map (copy-on-write), and
// Format drops it. The file bytes themselves stay shared, which is safe
// because WriteFile stores a copy and ReadFile returns one, so no
// stored slice is ever written in place.
package hardware

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// FSType is a simulated filesystem format.
type FSType uint8

const (
	FSNone FSType = iota // unformatted space
	FSExt3
	FSNTFS
	FSFAT
	FSSwap
)

// String returns the conventional name for the filesystem.
func (f FSType) String() string {
	switch f {
	case FSExt3:
		return "ext3"
	case FSNTFS:
		return "ntfs"
	case FSFAT:
		return "fat"
	case FSSwap:
		return "swap"
	default:
		return "none"
	}
}

// ParseFSType recognises the spellings used in ide.disk and
// diskpart.txt files.
func ParseFSType(s string) (FSType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ext3":
		return FSExt3, nil
	case "ntfs":
		return FSNTFS, nil
	case "fat", "fat32", "vfat", "msdos":
		return FSFAT, nil
	case "swap":
		return FSSwap, nil
	case "none", "":
		return FSNone, nil
	default:
		return FSNone, fmt.Errorf("hardware: unknown filesystem %q", s)
	}
}

// Partition is one entry of the MBR partition table plus its simulated
// contents. Index is Linux-style and 1-based: 1–4 are primary
// partitions, 5+ are logical partitions inside the extended partition.
// (GRUB device syntax is 0-based; the grubcfg package converts.)
type Partition struct {
	Index    int
	SizeMB   int64
	Type     FSType
	Label    string
	Active   bool // MBR active flag (what a generic bootloader boots)
	Bootable bool // ide.disk "bootable" marker

	// VBR is the partition's own volume boot record: what a generic
	// MBR chainloads when this partition is active. Windows setup
	// writes its loader here; GRUB can be installed to a partition
	// head instead of the MBR (the §II "changing active partition"
	// multi-boot approach).
	VBR BootloaderKind
	// VBRGrubConfig is the menu.lst path (on this partition) when VBR
	// is BootGRUB; empty means "/grub/menu.lst".
	VBRGrubConfig string

	files       map[string][]byte
	shared      bool // files is shared with another disk's partition
	formatCount int
}

// InstallGRUBVBR writes GRUB into the partition's boot record, reading
// its configuration from a file on the same partition.
func (p *Partition) InstallGRUBVBR(configPath string) {
	p.VBR = BootGRUB
	p.VBRGrubConfig = cleanPath(configPath)
}

// Formatted reports whether the partition has a filesystem.
func (p *Partition) Formatted() bool { return p.Type != FSNone && p.Type != FSSwap }

// FormatCount returns how many times the partition has been formatted,
// used by deployment experiments to count destructive operations.
func (p *Partition) FormatCount() int { return p.formatCount }

// Format gives the partition a (new) filesystem, destroying all files
// and its volume boot record.
func (p *Partition) Format(fs FSType) {
	p.Type = fs
	p.files, p.shared = nil, false
	p.VBR = BootNone
	p.VBRGrubConfig = ""
	p.formatCount++
}

// WriteFile stores a file on the partition. Paths are cleaned to a
// leading-slash form so "/boot/grub/menu.lst" and "boot/grub/menu.lst"
// address the same file.
func (p *Partition) WriteFile(path string, data []byte) error {
	if !p.Formatted() {
		return fmt.Errorf("hardware: write %s: partition %d is not formatted", path, p.Index)
	}
	p.own()
	if p.files == nil {
		p.files = make(map[string][]byte)
	}
	p.files[cleanPath(path)] = append([]byte(nil), data...)
	return nil
}

// ReadFile retrieves a file from the partition.
func (p *Partition) ReadFile(path string) ([]byte, error) {
	data, ok := p.files[cleanPath(path)]
	if !ok {
		return nil, fmt.Errorf("hardware: %s: no such file on partition %d", path, p.Index)
	}
	return append([]byte(nil), data...), nil
}

// HasFile reports whether path exists on the partition.
func (p *Partition) HasFile(path string) bool {
	_, ok := p.files[cleanPath(path)]
	return ok
}

// RemoveFile deletes a file; deleting a missing file is an error so
// that scripted deployments notice typos.
func (p *Partition) RemoveFile(path string) error {
	cp := cleanPath(path)
	if _, ok := p.files[cp]; !ok {
		return fmt.Errorf("hardware: remove %s: no such file on partition %d", path, p.Index)
	}
	p.own()
	delete(p.files, cp)
	return nil
}

// own gives the partition a private copy of a shared file map before
// it is changed.
func (p *Partition) own() {
	if p.shared {
		p.files, p.shared = maps.Clone(p.files), false
	}
}

// RenameFile renames a file in place, the operation the paper's batch
// scripts use to swap controlmenu_to_<os>.lst into controlmenu.lst.
func (p *Partition) RenameFile(from, to string) error {
	data, err := p.ReadFile(from)
	if err != nil {
		return err
	}
	if err := p.WriteFile(to, data); err != nil {
		return err
	}
	return p.RemoveFile(from)
}

// CopyFile duplicates a file on the same partition.
func (p *Partition) CopyFile(from, to string) error {
	data, err := p.ReadFile(from)
	if err != nil {
		return err
	}
	return p.WriteFile(to, data)
}

// Files returns the sorted list of file paths on the partition.
func (p *Partition) Files() []string {
	out := make([]string, 0, len(p.files))
	for k := range p.files {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FileCount returns the number of files on the partition.
func (p *Partition) FileCount() int { return len(p.files) }

func cleanPath(path string) string {
	path = strings.TrimSpace(path)
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	for strings.Contains(path, "//") {
		path = strings.ReplaceAll(path, "//", "/")
	}
	return path
}

// BootloaderKind identifies what code lives in the disk's MBR boot
// sector.
type BootloaderKind uint8

const (
	// BootNone: freshly cleaned disk, nothing to boot locally.
	BootNone BootloaderKind = iota
	// BootGRUB: GRUB stage1 in the MBR; it ignores the active flag and
	// reads its configuration file instead.
	BootGRUB
	// BootWindows: the generic Windows MBR code, which boots the
	// active primary partition.
	BootWindows
)

// String names the bootloader.
func (b BootloaderKind) String() string {
	switch b {
	case BootGRUB:
		return "grub"
	case BootWindows:
		return "windows-mbr"
	default:
		return "none"
	}
}

// MBR models the master boot record: which loader owns the boot
// sector, and — when GRUB is installed — where GRUB finds its
// configuration file. The paper's v1 pain point is exactly this state:
// reimaging Windows rewrites the MBR and "damages GRUB which boots
// Linux".
type MBR struct {
	Loader BootloaderKind
	// GrubConfigPartition / GrubConfigPath locate menu.lst when Loader
	// is BootGRUB (e.g. partition 2, "/grub/menu.lst").
	GrubConfigPartition int
	GrubConfigPath      string
}

// Disk is a single direct-attached disk with an MBR partition table.
type Disk struct {
	SizeMB int64
	MBR    MBR
	parts  []*Partition
}

// NewDisk returns an empty disk of the given size. The paper's nodes
// used 250 GB disks.
func NewDisk(sizeMB int64) *Disk {
	if sizeMB <= 0 {
		panic("hardware: non-positive disk size")
	}
	return &Disk{SizeMB: sizeMB}
}

// Clone returns a copy of the disk: the same size, MBR and partitions,
// whose file maps it shares with d until either side writes to them.
func (d *Disk) Clone() *Disk {
	c := &Disk{SizeMB: d.SizeMB, MBR: d.MBR, parts: make([]*Partition, len(d.parts))}
	parts := make([]Partition, len(d.parts))
	for i, p := range d.parts {
		p.shared = p.files != nil
		parts[i] = *p
		c.parts[i] = &parts[i]
	}
	return c
}

// maxPrimary is the MBR limit on primary partition slots. Logical
// partitions (index >= 5) live inside an extended partition which we
// model implicitly.
const maxPrimary = 4

// Partitions returns the partition table sorted by index.
func (d *Disk) Partitions() []*Partition {
	out := append([]*Partition(nil), d.parts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Partition returns the partition with the given 1-based index.
func (d *Disk) Partition(index int) (*Partition, error) {
	if p := d.find(index); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("hardware: no partition %d", index)
}

// HasPartition reports whether the index is allocated. Provisioning
// probes it on every node, so a miss builds no error.
func (d *Disk) HasPartition(index int) bool { return d.find(index) != nil }

// find returns the partition with the index, nil when there is none.
func (d *Disk) find(index int) *Partition {
	for _, p := range d.parts {
		if p.Index == index {
			return p
		}
	}
	return nil
}

// UsedMB returns the space consumed by all partitions.
func (d *Disk) UsedMB() int64 {
	var used int64
	for _, p := range d.parts {
		used += p.SizeMB
	}
	return used
}

// FreeMB returns unallocated space.
func (d *Disk) FreeMB() int64 { return d.SizeMB - d.UsedMB() }

// AddPartition creates a partition with an explicit index. Index 1–4
// are primary; 5+ logical. A sizeMB of -1 means "rest of the disk"
// (the '*' convention in ide.disk).
func (d *Disk) AddPartition(index int, sizeMB int64) (*Partition, error) {
	if index < 1 {
		return nil, fmt.Errorf("hardware: invalid partition index %d", index)
	}
	if d.HasPartition(index) {
		return nil, fmt.Errorf("hardware: partition %d already exists", index)
	}
	if sizeMB == -1 {
		sizeMB = d.FreeMB()
	}
	if sizeMB <= 0 {
		return nil, fmt.Errorf("hardware: invalid partition size %d MB", sizeMB)
	}
	if sizeMB > d.FreeMB() {
		return nil, fmt.Errorf("hardware: partition %d needs %d MB, only %d MB free", index, sizeMB, d.FreeMB())
	}
	p := &Partition{Index: index, SizeMB: sizeMB}
	d.parts = append(d.parts, p)
	return p, nil
}

// CreateNextPrimary allocates the lowest free primary slot, mirroring
// diskpart's "create partition primary". sizeMB of -1 takes the rest
// of the disk.
func (d *Disk) CreateNextPrimary(sizeMB int64) (*Partition, error) {
	for i := 1; i <= maxPrimary; i++ {
		if !d.HasPartition(i) {
			return d.AddPartition(i, sizeMB)
		}
	}
	return nil, fmt.Errorf("hardware: all %d primary slots in use", maxPrimary)
}

// DeletePartition removes a partition and its contents.
func (d *Disk) DeletePartition(index int) error {
	for i, p := range d.parts {
		if p.Index == index {
			d.parts = append(d.parts[:i], d.parts[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("hardware: no partition %d", index)
}

// Clean wipes the partition table and the MBR, as diskpart's "clean"
// does. Every file on every partition is lost.
func (d *Disk) Clean() {
	d.parts = nil
	d.MBR = MBR{}
}

// SetActive marks exactly one partition active (and clears the flag on
// the others), as diskpart's "active" does.
func (d *Disk) SetActive(index int) error {
	target, err := d.Partition(index)
	if err != nil {
		return err
	}
	if target.Index > maxPrimary {
		return fmt.Errorf("hardware: cannot mark logical partition %d active", index)
	}
	for _, p := range d.parts {
		p.Active = false
	}
	target.Active = true
	return nil
}

// ActivePartition returns the active primary partition, if any.
func (d *Disk) ActivePartition() (*Partition, bool) {
	for _, p := range d.parts {
		if p.Active {
			return p, true
		}
	}
	return nil, false
}

// InstallGRUB writes GRUB into the MBR, pointing it at a config file
// on a partition. This is what OSCAR's systemconfigurator does at the
// end of a Linux node install.
func (d *Disk) InstallGRUB(configPartition int, configPath string) error {
	if !d.HasPartition(configPartition) {
		return fmt.Errorf("hardware: GRUB config partition %d does not exist", configPartition)
	}
	d.MBR = MBR{Loader: BootGRUB, GrubConfigPartition: configPartition, GrubConfigPath: cleanPath(configPath)}
	return nil
}

// InstallWindowsMBR overwrites the boot sector with the generic
// Windows loader. If GRUB was installed it is destroyed — the exact
// failure mode that forces v1 of dualboot-oscar to reinstall Linux
// after every Windows reimage.
func (d *Disk) InstallWindowsMBR() {
	d.MBR = MBR{Loader: BootWindows}
}

// String summarises the disk for logs.
func (d *Disk) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "disk %dMB mbr=%s", d.SizeMB, d.MBR.Loader)
	for _, p := range d.Partitions() {
		fmt.Fprintf(&b, " [%d:%s %dMB", p.Index, p.Type, p.SizeMB)
		if p.Active {
			b.WriteString(" active")
		}
		if p.Label != "" {
			fmt.Fprintf(&b, " %q", p.Label)
		}
		b.WriteString("]")
	}
	return b.String()
}

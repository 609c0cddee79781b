// Package oscar models the OSCAR cluster middleware stack the paper
// builds on: node image construction from an ide.disk layout
// (systeminstaller), deployment of that image onto compute-node disks
// (systemimager) and bootloader configuration (systemconfigurator).
// The two dualboot-oscar generations differ here exactly as §III-C and
// §IV-B describe:
//
//   - v1 needs manual patches to the generated deployment script on
//     every image rebuild (insert the FAT partition, mkpart→mkpartfs,
//     rsync flags for FAT, fstab fixes), and GRUB lives in the MBR;
//   - v2 patches systemimager/systeminstaller once to support the
//     `skip` disk label, after which deployment scripts are generated
//     automatically and the Windows partition is never touched.
package oscar

import (
	"fmt"
	"strings"

	"repro/internal/deploy"
	"repro/internal/grubcfg"
	"repro/internal/hardware"
	"repro/internal/osid"
)

// Version selects the dualboot-oscar generation.
type Version uint8

const (
	V1 Version = 1
	V2 Version = 2
)

// String names the version.
func (v Version) String() string {
	if v == V2 {
		return "dualboot-oscar-2.0"
	}
	return "dualboot-oscar-1.0"
}

// LinuxReleaseFile marks an installed CentOS root (read by bootmgr's
// neighbours and by tests).
const LinuxReleaseFile = "/etc/redhat-release"

// DefaultPackages is the OSCAR package set installed into images.
var DefaultPackages = []string{
	"oscar-base", "torque-mom", "c3", "systemimager-client", "pvm", "lam", "openmpi", "ganglia-gmond",
}

// Image is a built node image: the product of systeminstaller.
type Image struct {
	Name     string
	Version  Version
	Layout   *deploy.Layout
	Kernel   grubcfg.LinuxEntrySpec
	Windows  grubcfg.WindowsEntrySpec
	Packages []string
	// ManualPatches lists the hand edits the administrator must redo
	// on every rebuild of this image (empty for v2).
	ManualPatches []string

	// The GRUB files every deployment writes, rendered once from the
	// fields above by BuildImage, so those fields must not change
	// after it: menu.lst for /boot and, for v1, the FAT partition's
	// staged and live control files.
	menu    []byte
	control []imageFile
}

// imageFile is one rendered file and the path it is written to.
type imageFile struct {
	path string
	data []byte
}

// BuildImage validates a layout and constructs an image for the given
// middleware generation.
func BuildImage(name string, version Version, layout *deploy.Layout) (*Image, error) {
	if name == "" {
		return nil, fmt.Errorf("oscar: image needs a name")
	}
	boot := layout.BootPartition()
	if boot == 0 {
		return nil, fmt.Errorf("oscar: layout has no bootable partition")
	}
	img := &Image{
		Name:     name,
		Version:  version,
		Layout:   layout,
		Kernel:   grubcfg.DefaultLinuxEntry(),
		Windows:  grubcfg.DefaultWindowsEntry(),
		Packages: append([]string(nil), DefaultPackages...),
	}
	img.Kernel.BootDev = grubcfg.DeviceForLinuxPartition(boot)
	// Point the kernel's root= argument at the ext3 root partition.
	for _, e := range layout.Partitions() {
		if e.MountPoint == "/" {
			img.Kernel.KernelArgs = fmt.Sprintf("ro root=/dev/sda%d enforcing=0", e.Index)
		}
	}
	if version == V1 {
		img.ManualPatches = []string{
			"reserve Windows space and insert FAT partition in ide.disk",
			"replace mkpart with mkpartfs in oscarimage.master",
			"add modify-window=1 size-only to rsync commands",
			"remove Windows partition lines from fstab and unmount commands",
		}
		if fatPartition(layout) == 0 {
			return nil, fmt.Errorf("oscar: v1 image needs a FAT control partition in the layout")
		}
	} else if !layout.HasSkip() {
		return nil, fmt.Errorf("oscar: v2 image needs a skip-labelled Windows partition")
	}
	if err := img.render(); err != nil {
		return nil, err
	}
	return img, nil
}

// render fills in the image's GRUB files: the /boot menu and, for v1,
// a staged control file per target OS plus the live one, which starts
// pointing at Linux.
func (img *Image) render() error {
	menu, err := bootMenu(img)
	if err != nil {
		return err
	}
	img.menu = menu.Render()
	if img.Version != V1 {
		return nil
	}
	for _, target := range []osid.OS{osid.Linux, osid.Windows} {
		cfg, err := grubcfg.ControlMenu(img.Kernel, img.Windows, target)
		if err != nil {
			return err
		}
		img.control = append(img.control, imageFile{grubcfg.StagedControlFileName(target), cfg.Render()})
	}
	img.control = append(img.control, imageFile{grubcfg.ControlFileName, img.control[0].data})
	return nil
}

// fatPartition finds the shared FAT control partition in a layout.
func fatPartition(layout *deploy.Layout) int {
	for _, e := range layout.Partitions() {
		if e.TypeName == "fat" {
			return e.Index
		}
	}
	return 0
}

// DeployReport describes one Linux node deployment.
type DeployReport struct {
	PartitionsCreated   int
	PartitionsPreserved int // skip/ntfs entries left untouched
	WindowsLost         bool
	GRUBInstalled       bool
	ManualSteps         int // patches the administrator had to redo
}

// DeployNode images a compute node: partitions the disk per the
// layout, installs the system and kernel files, writes the GRUB
// configuration for the image's generation and installs GRUB into the
// MBR. Pre-existing partitions at skip (or v1's reserved NTFS) indexes
// are preserved; everything else at a layout index is recreated.
func DeployNode(node *hardware.Node, img *Image) (DeployReport, error) {
	var rep DeployReport
	disk := node.Disk
	rep.ManualSteps = len(img.ManualPatches)

	hadWindows := false
	if p, err := disk.Partition(1); err == nil && p.Type == hardware.FSNTFS && p.HasFile(deploy.WindowsBootFile) {
		hadWindows = true
	}

	for _, e := range img.Layout.Entries {
		if e.Kind != deploy.KindPartition {
			continue
		}
		preserve := e.Skip() || e.TypeName == "ntfs"
		if disk.HasPartition(e.Index) {
			if preserve {
				rep.PartitionsPreserved++
				continue
			}
			if err := disk.DeletePartition(e.Index); err != nil {
				return rep, err
			}
		}
		p, err := disk.AddPartition(e.Index, e.SizeMB)
		if err != nil {
			return rep, fmt.Errorf("oscar: deploy %s: %w", e.Device, err)
		}
		rep.PartitionsCreated++
		if preserve {
			// reserved space for a future Windows install; leave raw
			continue
		}
		p.Format(fsTypeFor(e.TypeName))
		p.Bootable = e.Bootable
		if err := populatePartition(p, e, img); err != nil {
			return rep, err
		}
	}

	if hadWindows {
		if p, err := disk.Partition(1); err != nil || !p.HasFile(deploy.WindowsBootFile) {
			rep.WindowsLost = true
		}
	}

	boot := img.Layout.BootPartition()
	if err := disk.InstallGRUB(boot, "/grub/menu.lst"); err != nil {
		return rep, fmt.Errorf("oscar: install grub: %w", err)
	}
	rep.GRUBInstalled = true
	return rep, nil
}

// populatePartition writes the simulated system contents. WriteFile
// copies, so the disk holds its own copy of the image's files; a
// cluster deploys one prototype disk this way and gives its nodes
// copy-on-write clones of it (hardware.Disk.Clone), which share these
// bytes.
func populatePartition(p *hardware.Partition, e deploy.LayoutEntry, img *Image) error {
	switch {
	case e.Bootable: // /boot: kernel, initrd, GRUB config
		if err := p.WriteFile(img.Kernel.KernelPath, []byte("bzImage")); err != nil {
			return err
		}
		if img.Kernel.InitrdPath != "" {
			if err := p.WriteFile(img.Kernel.InitrdPath, []byte("initrd")); err != nil {
				return err
			}
		}
		if err := p.WriteFile("/grub/menu.lst", img.menu); err != nil {
			return err
		}
	case e.TypeName == "fat": // v1 shared control partition
		for _, f := range img.control {
			if err := p.WriteFile(f.path, f.data); err != nil {
				return err
			}
		}
		// Carter's universal switch script ships on the partition too.
		if err := p.WriteFile("/bootcontrol.pl", []byte("#!/usr/bin/perl # modify GRUB configuration file")); err != nil {
			return err
		}
	case e.MountPoint == "/": // root filesystem
		if err := p.WriteFile(LinuxReleaseFile, []byte("CentOS release 5.4 (Final)")); err != nil {
			return err
		}
		for _, pkg := range img.Packages {
			if err := p.WriteFile("/opt/oscar/packages/"+pkg, []byte(pkg)); err != nil {
				return err
			}
		}
	}
	return nil
}

// bootMenu builds the menu.lst installed on the /boot partition: v1
// redirects to the FAT control file (Figure 2); v2 holds a plain
// dual-boot menu as a local fallback for when PXE is unreachable.
func bootMenu(img *Image) (*grubcfg.Config, error) {
	if img.Version == V1 {
		fat := fatPartition(img.Layout)
		return grubcfg.RedirectMenu(grubcfg.DeviceForLinuxPartition(fat), grubcfg.ControlFileName), nil
	}
	return grubcfg.ControlMenu(img.Kernel, img.Windows, osid.Linux)
}

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

// GenerateMasterScript renders the oscarimage.master deployment script
// for an image, reflecting the v1 manual patches (mkpartfs, rsync
// flags) or the v2 auto-generated skip handling.
func GenerateMasterScript(img *Image) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#!/bin/sh\n# oscarimage.master — generated by systemimager (%s)\n", img.Version)
	for _, e := range img.Layout.Partitions() {
		switch {
		case e.Skip():
			fmt.Fprintf(&b, "# %s reserved (skip label): not touched\n", e.Device)
		case e.TypeName == "ntfs":
			fmt.Fprintf(&b, "# %s reserved for Windows (manual patch)\n", e.Device)
		case e.TypeName == "fat":
			fmt.Fprintf(&b, "parted -s -- /dev/sda mkpartfs primary fat32 %s\n", sizeExpr(e))
		default:
			verb := "mkpart"
			if img.Version == V1 {
				// the v1 patch swaps mkpart for mkpartfs so FAT works
				verb = "mkpartfs"
			}
			fmt.Fprintf(&b, "parted -s -- /dev/sda %s primary %s %s\n", verb, e.TypeName, sizeExpr(e))
		}
	}
	rsync := "rsync -av"
	if img.Version == V1 {
		rsync += " --modify-window=1 --size-only"
	}
	fmt.Fprintf(&b, "%s $IMAGESERVER::%s/ /a/\n", rsync, img.Name)
	return b.String()
}

func sizeExpr(e deploy.LayoutEntry) string {
	if e.SizeMB == -1 {
		return "0 -1"
	}
	return fmt.Sprintf("0 %dMB", e.SizeMB)
}

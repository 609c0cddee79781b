package oscar

import (
	"strings"
	"testing"

	"repro/internal/bootmgr"
	"repro/internal/deploy"
	"repro/internal/grubcfg"
	"repro/internal/hardware"
	"repro/internal/osid"
)

func layoutV1(t *testing.T) *deploy.Layout {
	t.Helper()
	l, err := deploy.ParseIdeDisk(deploy.V1IdeDisk)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func layoutV2(t *testing.T) *deploy.Layout {
	t.Helper()
	l, err := deploy.ParseIdeDisk(deploy.V2IdeDisk)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBuildImageV1(t *testing.T) {
	img, err := BuildImage("oscarimage", V1, layoutV1(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(img.ManualPatches) != 4 {
		t.Fatalf("manual patches = %d, want 4 (§III-C list)", len(img.ManualPatches))
	}
	if img.Kernel.BootDev != grubcfg.DeviceForLinuxPartition(2) {
		t.Fatalf("boot dev = %v", img.Kernel.BootDev)
	}
	if !strings.Contains(img.Kernel.KernelArgs, "root=/dev/sda7") {
		t.Fatalf("kernel args = %q", img.Kernel.KernelArgs)
	}
}

func TestBuildImageV2(t *testing.T) {
	img, err := BuildImage("oscarimage", V2, layoutV2(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(img.ManualPatches) != 0 {
		t.Fatalf("v2 should need no per-rebuild patches: %v", img.ManualPatches)
	}
	if !strings.Contains(img.Kernel.KernelArgs, "root=/dev/sda6") {
		t.Fatalf("kernel args = %q", img.Kernel.KernelArgs)
	}
}

func TestBuildImageValidation(t *testing.T) {
	if _, err := BuildImage("", V2, layoutV2(t)); err == nil {
		t.Error("empty name accepted")
	}
	// v2 without skip rejected
	if _, err := BuildImage("x", V2, layoutV1(t)); err == nil {
		t.Error("v2 image without skip accepted")
	}
	// v1 without FAT rejected
	if _, err := BuildImage("x", V1, layoutV2(t)); err == nil {
		t.Error("v1 image without FAT accepted")
	}
	// no bootable partition
	l, err := deploy.ParseIdeDisk("/dev/sda1 100 ext3 / defaults\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildImage("x", V2, l); err == nil {
		t.Error("layout without bootable partition accepted")
	}
}

func TestDeployNodeV1ThenBoot(t *testing.T) {
	// v1 order: Windows first, then Linux on top.
	n := hardware.NewNode(hardware.NodeSpec{Index: 1})
	dp, _ := deploy.ParseDiskpart(deploy.V1Diskpart)
	if _, err := deploy.DeployWindows(n, dp); err != nil {
		t.Fatal(err)
	}
	img, err := BuildImage("oscarimage", V1, layoutV1(t))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DeployNode(n, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowsLost {
		t.Fatal("Linux deploy destroyed Windows")
	}
	if rep.PartitionsPreserved != 1 {
		t.Fatalf("preserved = %d, want 1 (the NTFS partition)", rep.PartitionsPreserved)
	}
	if rep.ManualSteps != 4 {
		t.Fatalf("manual steps = %d", rep.ManualSteps)
	}
	if !rep.GRUBInstalled || n.Disk.MBR.Loader != hardware.BootGRUB {
		t.Fatal("GRUB not installed in MBR")
	}

	// The deployed node boots Linux through the Figure-2 redirect.
	res, err := bootmgr.Boot(n, bootmgr.Env{Latency: bootmgr.DefaultLatencyModel()})
	if err != nil {
		t.Fatal(err)
	}
	if res.OS != osid.Linux {
		t.Fatalf("booted %v", res.OS)
	}
	if !strings.Contains(strings.Join(res.Steps, "\n"), "configfile") {
		t.Fatalf("v1 boot did not pass through the FAT redirect: %v", res.Steps)
	}

	// Flip the FAT control file and the same node boots Windows.
	fat, _ := n.Disk.Partition(6)
	if err := fat.RemoveFile(grubcfg.ControlFileName); err != nil {
		t.Fatal(err)
	}
	if err := fat.RenameFile(grubcfg.StagedControlFileName(osid.Windows), grubcfg.ControlFileName); err != nil {
		t.Fatal(err)
	}
	res, err = bootmgr.Boot(n, bootmgr.Env{Latency: bootmgr.DefaultLatencyModel()})
	if err != nil {
		t.Fatal(err)
	}
	if res.OS != osid.Windows {
		t.Fatalf("after control flip booted %v", res.OS)
	}
}

func TestDeployNodeV2PreservesWindowsViaSkip(t *testing.T) {
	n := hardware.NewNode(hardware.NodeSpec{Index: 2})
	dp, _ := deploy.ParseDiskpart(deploy.V2InitialDiskpart)
	if _, err := deploy.DeployWindows(n, dp); err != nil {
		t.Fatal(err)
	}
	win, _ := n.Disk.Partition(1)
	win.WriteFile("/Users/research/results.dat", []byte("precious"))

	img, err := BuildImage("oscarimage", V2, layoutV2(t))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DeployNode(n, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowsLost {
		t.Fatal("skip label failed to protect Windows")
	}
	win, _ = n.Disk.Partition(1)
	if !win.HasFile("/Users/research/results.dat") {
		t.Fatal("windows user data lost")
	}
	// Reimage Linux again: Windows still intact (individual reimaging,
	// §IV-B).
	if _, err := DeployNode(n, img); err != nil {
		t.Fatal(err)
	}
	win, _ = n.Disk.Partition(1)
	if !win.HasFile("/Users/research/results.dat") {
		t.Fatal("second Linux reimage destroyed Windows data")
	}
}

func TestDeployNodeV2FreshDiskReservesSkipSpace(t *testing.T) {
	n := hardware.NewNode(hardware.NodeSpec{Index: 3})
	img, _ := BuildImage("oscarimage", V2, layoutV2(t))
	rep, err := DeployNode(n, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PartitionsCreated != 4 {
		t.Fatalf("created = %d", rep.PartitionsCreated)
	}
	p, err := n.Disk.Partition(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Formatted() {
		t.Fatal("skip partition was formatted")
	}
	if p.SizeMB != 16000 {
		t.Fatalf("skip size = %d", p.SizeMB)
	}
}

func TestDeployNodePopulatesSystem(t *testing.T) {
	n := hardware.NewNode(hardware.NodeSpec{Index: 4})
	img, _ := BuildImage("oscarimage", V2, layoutV2(t))
	if _, err := DeployNode(n, img); err != nil {
		t.Fatal(err)
	}
	boot, _ := n.Disk.Partition(2)
	if !boot.HasFile(img.Kernel.KernelPath) || !boot.HasFile("/grub/menu.lst") {
		t.Fatalf("boot contents = %v", boot.Files())
	}
	root, _ := n.Disk.Partition(6)
	if !root.HasFile(LinuxReleaseFile) {
		t.Fatal("release file missing")
	}
	for _, pkg := range DefaultPackages {
		if !root.HasFile("/opt/oscar/packages/" + pkg) {
			t.Fatalf("package %s missing", pkg)
		}
	}
}

func TestV1BootMenuIsRedirect(t *testing.T) {
	img, _ := BuildImage("i", V1, layoutV1(t))
	n := hardware.NewNode(hardware.NodeSpec{Index: 5})
	if _, err := DeployNode(n, img); err != nil {
		t.Fatal(err)
	}
	boot, _ := n.Disk.Partition(2)
	data, _ := boot.ReadFile("/grub/menu.lst")
	cfg, err := grubcfg.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Entries[0].ConfigFile(); !ok {
		t.Fatalf("v1 menu.lst is not a redirect:\n%s", data)
	}
	// FAT partition has live + both staged menus + the switch script.
	fat, _ := n.Disk.Partition(6)
	for _, f := range []string{grubcfg.ControlFileName,
		grubcfg.StagedControlFileName(osid.Linux), grubcfg.StagedControlFileName(osid.Windows),
		"/bootcontrol.pl"} {
		if !fat.HasFile(f) {
			t.Errorf("FAT missing %s: has %v", f, fat.Files())
		}
	}
}

func TestV2BootMenuIsLocalFallback(t *testing.T) {
	img, _ := BuildImage("i", V2, layoutV2(t))
	n := hardware.NewNode(hardware.NodeSpec{Index: 6})
	if _, err := DeployNode(n, img); err != nil {
		t.Fatal(err)
	}
	boot, _ := n.Disk.Partition(2)
	data, _ := boot.ReadFile("/grub/menu.lst")
	cfg, err := grubcfg.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Entries) != 2 {
		t.Fatalf("v2 local menu entries = %d, want dual menu", len(cfg.Entries))
	}
}

// renderPerNode renders an image's GRUB files from its fields, as
// every deployment once did for itself: menu.lst by boot partition
// path, and for v1 the FAT partition's staged and live control files.
func renderPerNode(t *testing.T, img *Image) (boot, fat map[string][]byte) {
	t.Helper()
	menu, err := grubcfg.ControlMenu(img.Kernel, img.Windows, osid.Linux)
	if img.Version == V1 {
		menu = grubcfg.RedirectMenu(grubcfg.DeviceForLinuxPartition(fatPartition(img.Layout)), grubcfg.ControlFileName)
	}
	if err != nil {
		t.Fatal(err)
	}
	boot = map[string][]byte{"/grub/menu.lst": menu.Render()}
	if img.Version != V1 {
		return boot, nil
	}
	fat = map[string][]byte{}
	for _, target := range []osid.OS{osid.Linux, osid.Windows} {
		cfg, err := grubcfg.ControlMenu(img.Kernel, img.Windows, target)
		if err != nil {
			t.Fatal(err)
		}
		fat[grubcfg.StagedControlFileName(target)] = cfg.Render()
	}
	fat[grubcfg.ControlFileName] = fat[grubcfg.StagedControlFileName(osid.Linux)]
	return boot, fat
}

// TestDeployedGRUBFilesMatchPerNodeRendering deploys one image onto
// several nodes and requires each node's GRUB files to be byte for
// byte what rendering them for that node gives, for both generations,
// and a write to one node's copy to leave the others alone.
func TestDeployedGRUBFilesMatchPerNodeRendering(t *testing.T) {
	for _, tc := range []struct {
		v      Version
		layout *deploy.Layout
	}{{V1, layoutV1(t)}, {V2, layoutV2(t)}} {
		img, err := BuildImage("oscarimage", tc.v, tc.layout)
		if err != nil {
			t.Fatal(err)
		}
		boot, fat := renderPerNode(t, img)
		var nodes []*hardware.Node
		for i := 1; i <= 3; i++ {
			n := hardware.NewNode(hardware.NodeSpec{Index: i})
			if _, err := DeployNode(n, img); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		for _, n := range nodes {
			for part, want := range map[int]map[string][]byte{tc.layout.BootPartition(): boot, fatPartition(tc.layout): fat} {
				if part == 0 {
					continue
				}
				p, err := n.Disk.Partition(part)
				if err != nil {
					t.Fatal(err)
				}
				for path, data := range want {
					if got, err := p.ReadFile(path); err != nil || string(got) != string(data) {
						t.Fatalf("%v %s: %s differs from its per-node rendering (err %v):\n%s\nwant\n%s", tc.v, n.Name, path, err, got, data)
					}
				}
			}
		}
		p, _ := nodes[0].Disk.Partition(tc.layout.BootPartition())
		if err := p.WriteFile("/grub/menu.lst", []byte("changed")); err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes[1:] {
			q, _ := n.Disk.Partition(tc.layout.BootPartition())
			if got, _ := q.ReadFile("/grub/menu.lst"); string(got) != string(boot["/grub/menu.lst"]) {
				t.Fatalf("%v: a write to one node's menu.lst reached %s", tc.v, n.Name)
			}
		}
	}
}

func TestGenerateMasterScript(t *testing.T) {
	v1img, _ := BuildImage("oscarimage", V1, layoutV1(t))
	v2img, _ := BuildImage("oscarimage", V2, layoutV2(t))
	s1 := GenerateMasterScript(v1img)
	s2 := GenerateMasterScript(v2img)
	if !strings.Contains(s1, "mkpartfs") {
		t.Errorf("v1 script lacks mkpartfs patch:\n%s", s1)
	}
	if !strings.Contains(s1, "--modify-window=1 --size-only") {
		t.Errorf("v1 script lacks rsync FAT flags:\n%s", s1)
	}
	if !strings.Contains(s2, "skip label") {
		t.Errorf("v2 script lacks skip handling:\n%s", s2)
	}
	if strings.Contains(s2, "--modify-window") {
		t.Errorf("v2 script carries v1 rsync patch:\n%s", s2)
	}
}

func TestVersionString(t *testing.T) {
	if V1.String() != "dualboot-oscar-1.0" || V2.String() != "dualboot-oscar-2.0" {
		t.Fatal("version strings wrong")
	}
}

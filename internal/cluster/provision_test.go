package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/hardware"
	"repro/internal/oscar"
	"repro/internal/osid"
)

// diskContents renders a disk's MBR and partition table: per partition
// every exported field, the format count and every file's bytes.
func diskContents(d *hardware.Disk) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "size %d mbr %+v\n", d.SizeMB, d.MBR)
	for _, p := range d.Partitions() {
		v := reflect.ValueOf(*p)
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				fmt.Fprintf(&b, "%s=%v ", f.Name, v.Field(i))
			}
		}
		fmt.Fprintf(&b, "formats=%d\n", p.FormatCount())
		for _, path := range p.Files() {
			data, _ := p.ReadFile(path)
			fmt.Fprintf(&b, "  %s %q\n", path, data)
		}
	}
	return b.String()
}

// Every node boots from a clone of one prototype disk; each must hold
// exactly what deploying that node on its own would have written.
func TestEveryNodeDiskMatchesAPrivateDeploy(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cfg            Config
		version        oscar.Version
		layout, script string
	}{
		{"v1", Config{Mode: HybridV1}, oscar.V1, deploy.V1IdeDisk, deploy.V1Diskpart},
		{"v2", Config{Mode: HybridV2}, oscar.V2, deploy.V2IdeDisk, deploy.V2InitialDiskpart},
		{"static", Config{Mode: Static}, oscar.V2, deploy.V2IdeDisk, deploy.V2InitialDiskpart},
		{"per-mac", Config{Mode: HybridV2, PerMACBoot: true}, oscar.V2, deploy.V2IdeDisk, deploy.V2InitialDiskpart},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Nodes = 6
			c := newCluster(t, tc.cfg)
			layout, err := deploy.ParseIdeDisk(tc.layout)
			if err != nil {
				t.Fatal(err)
			}
			img, err := oscar.BuildImage("oscarimage", tc.version, layout)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := deploy.ParseDiskpart(tc.script)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range c.Nodes() {
				hw := hardware.NewNode(hardware.NodeSpec{Name: n.HW.Name})
				if _, err := deploy.DeployWindows(hw, dp); err != nil {
					t.Fatal(err)
				}
				if _, err := oscar.DeployNode(hw, img); err != nil {
					t.Fatal(err)
				}
				if tc.cfg.Mode == HybridV1 {
					if err := c.setV1ControlFile(hw, n.OS); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := diskContents(n.HW.Disk), diskContents(hw.Disk); got != want {
					t.Fatalf("%s (%s) disk\n%s\nprivately deployed\n%s", n.HW.Name, n.OS, got, want)
				}
			}
		})
	}
}

// A switch and a reimage write to one node's disk; no other node's
// disk may change with it.
func TestNodeDiskWritesStayOnTheirNode(t *testing.T) {
	for _, mode := range []Mode{HybridV1, HybridV2} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, Config{Mode: mode, Nodes: 6})
			disks := func() map[string]string {
				m := map[string]string{}
				for _, n := range c.Nodes() {
					m[n.HW.Name] = diskContents(n.HW.Disk)
				}
				return m
			}
			unchanged := func(what, name string, before map[string]string) map[string]string {
				t.Helper()
				after := disks()
				for other, d := range after {
					if other != name && d != before[other] {
						t.Fatalf("%s of %s changed %s's disk:\n%s\nwas\n%s", what, name, other, d, before[other])
					}
				}
				return after
			}

			before := disks()
			if err := c.ForceSwitch("enode01", osid.Windows); err != nil {
				t.Fatal(err)
			}
			c.Eng.RunFor(time.Hour)
			after := unchanged("switch", "enode01", before)
			if mode == HybridV1 && after["enode01"] == before["enode01"] {
				t.Fatal("v1 switch left enode01's FAT control file as it was")
			}

			rep, err := c.ReimageWindows("enode06", true)
			if err != nil {
				t.Fatal(err)
			}
			c.Eng.RunFor(time.Hour)
			final := unchanged("reimage", "enode06", after)
			// v1 cleans the disk and redeploys the same contents; v2
			// reformats the Windows partition in place.
			if mode == HybridV1 && !rep.Redeployed || mode != HybridV1 && final["enode06"] == after["enode06"] {
				t.Fatalf("reimage of enode06 wrote nothing: %+v", rep)
			}
		})
	}
}

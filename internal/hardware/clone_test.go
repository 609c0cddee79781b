package hardware_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/deploy"
	"repro/internal/hardware"
	"repro/internal/oscar"
)

// deployed returns a node disk provisioned the way a cluster does it:
// the generation's diskpart script, then its OSCAR image on top.
func deployed(t testing.TB, v1 bool) *hardware.Disk {
	t.Helper()
	version, layoutText, script := oscar.V2, deploy.V2IdeDisk, deploy.V2InitialDiskpart
	if v1 {
		version, layoutText, script = oscar.V1, deploy.V1IdeDisk, deploy.V1Diskpart
	}
	layout, err := deploy.ParseIdeDisk(layoutText)
	if err != nil {
		t.Fatal(err)
	}
	img, err := oscar.BuildImage("oscarimage", version, layout)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := deploy.ParseDiskpart(script)
	if err != nil {
		t.Fatal(err)
	}
	node := hardware.NewNode(hardware.NodeSpec{Name: "enode01"})
	if _, err := deploy.DeployWindows(node, dp); err != nil {
		t.Fatal(err)
	}
	if _, err := oscar.DeployNode(node, img); err != nil {
		t.Fatal(err)
	}
	return node.Disk
}

// contents renders everything a disk holds that its API shows: size,
// MBR, free space and, per partition in index order, every exported
// field, the format count and every file's bytes.
func contents(d *hardware.Disk) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "size %d free %d mbr %+v\n", d.SizeMB, d.FreeMB(), d.MBR)
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

// diskOp is one decoded fuzz operation on a disk.
type diskOp struct{ code, part, path, arg byte }

// apply runs the operation on d. Paths index into paths, partitions
// are 1–7 and sizes come from arg, so the same op means the same thing
// on every disk it is applied to. Codes 0–5 act on a partition, 6–11
// on the disk.
func (o diskOp) apply(d *hardware.Disk, paths []string) error {
	index := 1 + int(o.part)%7
	path, other := paths[int(o.path)%len(paths)], paths[int(o.arg)%len(paths)]
	code := o.code % 12
	if code <= 5 {
		p, err := d.Partition(index)
		if err != nil {
			return err
		}
		switch code {
		case 0:
			return p.WriteFile(path, []byte{o.arg})
		case 1:
			return p.RemoveFile(path)
		case 2:
			return p.RenameFile(path, other)
		case 3:
			return p.CopyFile(path, other)
		case 4:
			p.Format(hardware.FSType(o.arg % 5))
			return nil
		default:
			// Scribble on a read copy: it must reach no disk.
			data, err := p.ReadFile(path)
			for i := range data {
				data[i] ^= 0xff
			}
			return err
		}
	}
	switch code {
	case 6:
		size := int64(o.arg) * 1000
		if o.arg%4 == 0 {
			size = -1
		}
		_, err := d.AddPartition(index, size)
		return err
	case 7:
		return d.DeletePartition(index)
	case 8:
		return d.SetActive(index)
	case 9:
		d.Clean()
		return nil
	case 10:
		return d.InstallGRUB(index, path)
	default:
		d.InstallWindowsMBR()
		return nil
	}
}

// FuzzCloneMatchesPrivate holds copy-on-write clones to the disks they
// stand for. Each input picks a generation and whether the disk under
// test is a clone of a clone, then applies one operation sequence both
// to that clone and to a privately deployed disk. After every
// operation the two must agree on their errors and their contents, and
// the prototype and a sibling clone must be exactly as deployed.
func FuzzCloneMatchesPrivate(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 0, 2, 0, 2, 0, 3, 0})
	f.Add([]byte{1, 0, 2, 3, 9, 1, 2, 4, 5, 2, 0, 0, 0, 8, 0, 0, 0, 5, 1, 0, 0, 0, 1, 0, 7})
	f.Add([]byte{3, 4, 0, 0, 1, 0, 1, 2, 7, 6, 1, 0, 0, 5, 1, 0, 0, 0, 1, 4, 9, 11, 1, 4, 0})
	f.Add([]byte{2, 2, 3, 1, 5, 3, 3, 2, 6, 1, 2, 3, 4, 10, 0, 0, 0, 9, 2, 1, 0, 1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		v1, nested := data[0]&1 != 0, data[0]&2 != 0
		proto := deployed(t, v1)
		want := contents(proto)
		clone, sibling := proto.Clone(), proto.Clone()
		if nested {
			clone = sibling.Clone()
		}
		private := deployed(t, v1)

		paths := []string{"/new-a", "new-b/c"}
		for _, p := range proto.Partitions() {
			paths = append(paths, p.Files()...)
		}
		ops := data[1:]
		for i := 0; i+4 <= len(ops) && i < 4*64; i += 4 {
			o := diskOp{ops[i], ops[i+1], ops[i+2], ops[i+3]}
			errC, errP := o.apply(clone, paths), o.apply(private, paths)
			if fmt.Sprint(errC) != fmt.Sprint(errP) {
				t.Fatalf("op %d %+v: clone error %v, private error %v", i/4, o, errC, errP)
			}
			if got, priv := contents(clone), contents(private); got != priv {
				t.Fatalf("op %d %+v: clone\n%s\nprivate\n%s", i/4, o, got, priv)
			}
			if got := contents(proto); got != want {
				t.Fatalf("op %d %+v changed the prototype:\n%s\nwant\n%s", i/4, o, got, want)
			}
			if got := contents(sibling); got != want {
				t.Fatalf("op %d %+v changed the sibling clone:\n%s\nwant\n%s", i/4, o, got, want)
			}
		}
	})
}

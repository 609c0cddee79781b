package cluster_test

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/pbs"
	"repro/internal/winhpc"
)

// TestJobRecordsPointerFree locks the layout of the three per-job
// records a run keeps by the hundred thousand: the two head nodes' job
// slots and the recorder's row. None may hold a string, pointer,
// slice, map, func, channel or interface, so their tables are never
// scanned by the collector, and each keeps its size on 64-bit
// platforms (a 64-job pbs chunk fits the 8 KiB size class).
func TestJobRecordsPointerFree(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{
		{pbs.Job{}, 120},
		{winhpc.Job{}, 104},
		{metrics.Lifecycle{}, 72},
	} {
		typ := reflect.TypeOf(c.v)
		if path := pointerPath(typ, typ.String()); path != "" {
			t.Errorf("%s holds a pointer: %s", typ, path)
		}
		if unsafe.Sizeof(uintptr(0)) != 8 {
			continue
		}
		if got := typ.Size(); got != c.size {
			t.Errorf("%s is %d bytes, want %d", typ, got, c.size)
		}
	}
}

// pointerPath returns the path to the first field of typ that holds a
// pointer, "" when there is none.
func pointerPath(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerPath(typ.Elem(), path+"[]")
	case reflect.String, reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Func, reflect.Chan, reflect.Interface:
		return path + " (" + typ.Kind().String() + ")"
	}
	return ""
}

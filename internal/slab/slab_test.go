package slab

import "testing"

// TestSlabAddressesStayPut: records keep their address and value while
// the table grows across many chunks, and At finds each by index.
func TestSlabAddressesStayPut(t *testing.T) {
	var s Slab[[3]int]
	const n = 5*chunkLen + 7
	ptrs := make([]*[3]int, n)
	for i := range ptrs {
		p := s.Add()
		if *p != [3]int{} {
			t.Fatalf("record %d not zeroed: %v", i, *p)
		}
		*p = [3]int{i, -i, 2 * i}
		ptrs[i] = p
		if s.Len() != i+1 {
			t.Fatalf("Len = %d after %d adds", s.Len(), i+1)
		}
	}
	for i, p := range ptrs {
		if s.At(i) != p || *p != [3]int{i, -i, 2 * i} {
			t.Fatalf("record %d moved or changed: %v", i, *s.At(i))
		}
	}
}

// TestArenaRunsAreDisjointAndStable: runs of any length, including
// ones longer than a chunk, never overlap, keep their contents as the
// arena grows, and the zero Ref is the empty run.
func TestArenaRunsAreDisjointAndStable(t *testing.T) {
	var a Arena[int32]
	if r := (Ref{}); r.Len() != 0 || a.Run(r) != nil {
		t.Fatalf("zero Ref = %v, want the empty run", a.Run(r))
	}
	if r, run := a.Alloc(0); r != (Ref{}) || run != nil {
		t.Fatalf("Alloc(0) = %v, %v", r, run)
	}
	var refs []Ref
	next := int32(1)
	for i := 0; i < 400; i++ {
		n := 1 + i*37%97
		if i%50 == 49 {
			n = maxRun + i // gets a chunk of its own
		}
		r, run := a.Alloc(n)
		if r.Len() != n || len(run) != n || cap(run) != n {
			t.Fatalf("Alloc(%d): Ref length %d, run %d/%d", n, r.Len(), len(run), cap(run))
		}
		for k := range run {
			if run[k] != 0 {
				t.Fatalf("run %d not zeroed", i)
			}
			run[k] = next
			next++
		}
		refs = append(refs, r)
	}
	want := int32(1)
	for i, r := range refs {
		for _, v := range a.Run(r) {
			if v != want {
				t.Fatalf("run %d holds %d, want %d: runs overlap or moved", i, v, want)
			}
			want++
		}
	}
}

// TestStringsFirstSeenOrder: distinct strings get 1, 2, ... in the
// order they are first seen, a repeat gets its first index back, ""
// is always 0, and At reads each index back.
func TestStringsFirstSeenOrder(t *testing.T) {
	var s Strings
	if got := s.At(0); got != "" {
		t.Fatalf("At(0) = %q on an empty table", got)
	}
	in := []string{"zed", "", "alpha", "zed", "mid", "alpha"}
	want := []uint32{1, 0, 2, 1, 3, 2}
	for k, str := range in {
		if got := s.Intern(str); got != want[k] {
			t.Fatalf("Intern(%q) = %d, want %d", str, got, want[k])
		}
	}
	for k, str := range in {
		if got := s.At(want[k]); got != str {
			t.Fatalf("At(%d) = %q, want %q", want[k], got, str)
		}
	}
}

// TestStringsPastTheScan: past the strings a Strings scans, the map it
// builds keeps every earlier index and hands out the next ones in
// order.
func TestStringsPastTheScan(t *testing.T) {
	var s Strings
	const n = 4 * smallStrings
	for round := range 2 {
		for k := 1; k <= n; k++ {
			str := string(rune('A' + k))
			if got := s.Intern(str); got != uint32(k) {
				t.Fatalf("round %d: Intern(%q) = %d, want %d", round, str, got, k)
			}
			if got := s.At(uint32(k)); got != str {
				t.Fatalf("At(%d) = %q, want %q", k, got, str)
			}
		}
	}
}

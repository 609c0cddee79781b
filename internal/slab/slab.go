// Package slab stores records without one heap object per record.
// Slab keeps values in fixed-size chunks, so a record's address never
// changes as the table grows and a lookup by index is a shift and an
// index: the head-node schedulers keep their jobs in one and hand out
// stable *Job pointers (the scheduling core holds a pointer to every
// job's entry). Arena keeps append-only runs of records, addressed by
// a pointer-free Ref: a job's exec_host slots live in one. Strings
// hands out a small index per distinct string, so a record keeps a
// uint32 where it would keep a string header. Records built from these
// hold no pointer, and the garbage collector never scans a chunk of
// them.
package slab

// chunkBits sets the Slab chunk length: 64 records per chunk, so a
// small server allocates little and a city-scale one allocates once
// per 64 jobs.
const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
)

// Slab is an append-only table of T, indexed from 0.
type Slab[T any] struct {
	chunks []*[chunkLen]T
	n      int
}

// Add appends a zero T and returns its address; its index is Len()-1.
func (s *Slab[T]) Add() *T {
	if s.n&(chunkLen-1) == 0 {
		s.chunks = append(s.chunks, new([chunkLen]T))
	}
	p := &s.chunks[s.n>>chunkBits][s.n&(chunkLen-1)]
	s.n++
	return p
}

// At returns the record at index i, which must be below Len().
func (s *Slab[T]) At(i int) *T { return &s.chunks[i>>chunkBits][i&(chunkLen-1)] }

// Len returns the number of records added.
func (s *Slab[T]) Len() int { return s.n }

// Arena chunks start at minRun records and double up to maxRun; a run
// longer than maxRun gets a chunk of its own.
const (
	minRun = 64
	maxRun = 4096
)

// Arena is an append-only store of runs of T. A run never moves once
// allocated.
type Arena[T any] struct {
	chunks [][]T
	used   int // records taken from the last chunk
}

// Ref locates a run in an Arena. The zero Ref is the empty run.
type Ref struct {
	chunk, off, n int32
}

// Len returns the run's length.
func (r Ref) Len() int { return int(r.n) }

// Alloc reserves a run of n records and returns its Ref and the run
// itself, zeroed, for the caller to fill.
func (a *Arena[T]) Alloc(n int) (Ref, []T) {
	if n <= 0 {
		return Ref{}, nil
	}
	last := len(a.chunks) - 1
	if last < 0 || a.used+n > len(a.chunks[last]) {
		size := minRun
		if last >= 0 {
			size = min(2*len(a.chunks[last]), maxRun)
		}
		a.chunks = append(a.chunks, make([]T, max(size, n)))
		last, a.used = last+1, 0
	}
	r := Ref{chunk: int32(last), off: int32(a.used), n: int32(n)}
	a.used += n
	return r, a.Run(r)
}

// Run returns the records of r.
func (a *Arena[T]) Run(r Ref) []T {
	if r.n == 0 {
		return nil
	}
	return a.chunks[r.chunk][r.off : r.off+r.n : r.off+r.n]
}

// Strings interns strings: each distinct string gets an index, handed
// out in first-seen order so a deterministic run numbers its strings
// the same way every time. Index 0 is the empty string, so a zero
// field reads "". The zero Strings is ready to use.
type Strings struct {
	strs []string          // by index; strs[0] is ""
	idx  map[string]uint32 // built once strs outgrows smallStrings
}

// smallStrings is how many strings a Strings finds by scanning before
// it builds a map: most tables hold a handful (queue names, owners,
// applications), and a scan of a few allocates nothing.
const smallStrings = 8

// Intern returns s's index, giving s the next one on first sight.
func (t *Strings) Intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if t.idx != nil {
		if i, ok := t.idx[s]; ok {
			return i
		}
	} else {
		for i, x := range t.strs {
			if x == s {
				return uint32(i)
			}
		}
	}
	if t.strs == nil {
		t.strs = make([]string, 1, smallStrings)
	}
	i := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	switch {
	case t.idx != nil:
		t.idx[s] = i
	case len(t.strs) > smallStrings:
		t.idx = make(map[string]uint32, 2*len(t.strs))
		for k, x := range t.strs[1:] {
			t.idx[x] = uint32(k + 1)
		}
	}
	return i
}

// At returns the string of index i, which Intern must have returned.
func (t *Strings) At(i uint32) string {
	if i == 0 {
		return ""
	}
	return t.strs[i]
}

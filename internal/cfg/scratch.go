package cfg

// Scratch is a per-function free-list of analysis buffers. The optimizer
// recomputes edges, dominators and liveness after nearly every pass; with a
// Scratch attached to the Func those recomputations reuse the previous
// buffers instead of reallocating them, which removes the bulk of the
// pipeline's allocation traffic (see docs/PERFORMANCE.md).
//
// Reuse is explicitly opted into: an analysis result (Edges, opt.Liveness,
// Dominators) stays valid until its Release method returns its buffers
// here. Forgetting to Release is safe — the buffers are garbage collected
// as before — and releasing twice is a no-op. A Scratch is confined to one
// function, so per-function parallel compilation needs no locking; it is
// deliberately not copied by Func.Clone.
type Scratch struct {
	words [][]uint64
	ints  [][]int32
	edges []*Edges
}

// headroom is the capacity an arena buffer is allocated with when n
// elements no longer fit. The optimizer grows a function a block or so at a
// time (each replication, each fold), so buffers sized exactly would be
// reallocated by the very next analysis.
func headroom(n int) int { return n + n/2 }

// Scratch returns the function's scratch arena, creating it on first use.
func (f *Func) Scratch() *Scratch {
	if f.scratch == nil {
		f.scratch = &Scratch{}
	}
	return f.scratch
}

// Words borrows a zeroed []uint64 of length n.
func (s *Scratch) Words(n int) []uint64 {
	if k := len(s.words); k > 0 {
		buf := s.words[k-1]
		s.words[k-1] = nil
		s.words = s.words[:k-1]
		if cap(buf) >= n {
			buf = buf[:n]
			for i := range buf {
				buf[i] = 0
			}
			return buf
		}
	}
	return make([]uint64, n, headroom(n))
}

// PutWords returns a buffer borrowed with Words.
func (s *Scratch) PutWords(buf []uint64) {
	if cap(buf) > 0 {
		s.words = append(s.words, buf[:0])
	}
}

// Ints borrows a []int32 of length n with unspecified contents.
func (s *Scratch) Ints(n int) []int32 {
	if k := len(s.ints); k > 0 {
		buf := s.ints[k-1]
		s.ints[k-1] = nil
		s.ints = s.ints[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]int32, n, headroom(n))
}

// PutInts returns a buffer borrowed with Ints.
func (s *Scratch) PutInts(buf []int32) {
	if cap(buf) > 0 {
		s.ints = append(s.ints, buf[:0])
	}
}

// getEdges pops a released Edges value (or returns a fresh one).
func (s *Scratch) getEdges() *Edges {
	if k := len(s.edges); k > 0 {
		e := s.edges[k-1]
		s.edges[k-1] = nil
		s.edges = s.edges[:k-1]
		e.released = false
		return e
	}
	return &Edges{}
}

// putEdges records e as reusable by the next ComputeEdges on this function.
func (s *Scratch) putEdges(e *Edges) {
	s.edges = append(s.edges, e)
}

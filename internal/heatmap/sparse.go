// The sparse MHM representation. A monitoring interval touches a
// handful of hot cells in an otherwise empty region, so the dense
// Counts vector is overwhelmingly zeros; Sparse stores only the
// occupied cells as index+count runs, shrinking per-interval buffers
// and fleet-scale memory bandwidth, and feeding the run-aware scoring
// path (score.Scorer.ScoreSparse) without densifying.
package heatmap

import (
	"fmt"
)

// Sparse is the run-length form of one MHM: run r covers the
// RunLen[r] consecutive occupied cells starting at cell RunStart[r],
// whose counts sit contiguously in Counts (Σ RunLen == len(Counts)).
// Runs are in ascending cell order and separated by at least one
// empty cell; zero counts never appear inside a run. The zero value
// is an empty map with no definition; (*HeatMap).Sparsify and Reset
// establish the invariants.
type Sparse struct {
	Def Def
	// Start and End are the interval bounds in simulation microseconds.
	Start, End int64
	// RunStart[r] is the first cell of run r; RunLen[r] its cell count.
	RunStart []int32
	RunLen   []int32
	// Counts holds the per-cell counts of all runs, concatenated.
	Counts []uint32
}

// Reset re-targets s to a new (empty) interval, keeping the backing
// arrays for reuse.
func (s *Sparse) Reset(d Def, start, end int64) {
	s.Def = d
	s.Start, s.End = start, end
	s.RunStart = s.RunStart[:0]
	s.RunLen = s.RunLen[:0]
	s.Counts = s.Counts[:0]
}

// NNZ returns the number of occupied cells.
func (s *Sparse) NNZ() int { return len(s.Counts) }

// appendRun appends one run, growing the backing arrays as needed.
func (s *Sparse) appendRun(start int32, counts []uint32) {
	s.RunStart = append(s.RunStart, start)
	s.RunLen = append(s.RunLen, int32(len(counts)))
	s.Counts = append(s.Counts, counts...)
}

// Sparsify converts h to run-length form. dst's backing arrays are
// reused when large enough (pass the same dst every interval for an
// allocation-free steady state); a nil dst allocates a fresh Sparse.
func (h *HeatMap) Sparsify(dst *Sparse) *Sparse {
	if dst == nil {
		dst = &Sparse{}
	}
	dst.Reset(h.Def, h.Start, h.End)
	counts := h.Counts
	for i := 0; i < len(counts); {
		if counts[i] == 0 {
			i++
			continue
		}
		j := i + 1
		for j < len(counts) && counts[j] != 0 {
			j++
		}
		dst.appendRun(int32(i), counts[i:j])
		i = j
	}
	return dst
}

// Dense expands s back to a dense HeatMap. dst is reused when it has
// the right cell count (its counts are overwritten); a nil or
// mis-sized dst allocates. Sparsify and Dense are exact inverses:
// Dense(Sparsify(h)) reproduces h's definition, interval, and counts.
//
//mhmlint:ignore deadapi the round-trip oracle of TestSparsifyDenseRoundTrip, TestSparseEdgeShapes, FuzzSparseRoundTrip and TestCollectSparseMatchesCollect
func (s *Sparse) Dense(dst *HeatMap) *HeatMap {
	l := s.Def.Cells()
	if dst == nil || len(dst.Counts) != l {
		dst = &HeatMap{Counts: make([]uint32, l)}
	}
	dst.Def = s.Def
	dst.Start, dst.End = s.Start, s.End
	for i := range dst.Counts {
		dst.Counts[i] = 0
	}
	s.scatter(dst.Counts)
	return dst
}

// scatter writes the run counts into a zeroed dense array.
func (s *Sparse) scatter(counts []uint32) {
	off := 0
	for r, st := range s.RunStart {
		n := int(s.RunLen[r])
		copy(counts[int(st):int(st)+n], s.Counts[off:off+n])
		off += n
	}
}

// Validate checks the run invariants: ascending, non-adjacent,
// positive-length runs within the cell count, run lengths consistent
// with the flat counts, and no zero count inside a run.
//
//mhmlint:ignore deadapi the oracle the Sparsify and CollectSparse tests check their run form against
func (s *Sparse) Validate() error {
	if err := s.Def.Validate(); err != nil {
		return err
	}
	if len(s.RunStart) != len(s.RunLen) {
		return fmt.Errorf("heatmap: sparse: %d run starts, %d run lengths: %w",
			len(s.RunStart), len(s.RunLen), ErrConfig)
	}
	l := s.Def.Cells()
	next := int32(0) // earliest legal start of the next run
	total := 0
	for r, st := range s.RunStart {
		n := s.RunLen[r]
		if n <= 0 || st < next || int(st)+int(n) > l {
			return fmt.Errorf("heatmap: sparse: run %d [%d,+%d) invalid for %d cells: %w",
				r, st, n, l, ErrConfig)
		}
		next = st + n + 1 // at least one empty cell between runs
		total += int(n)
	}
	if total != len(s.Counts) {
		return fmt.Errorf("heatmap: sparse: runs cover %d cells, %d counts: %w",
			total, len(s.Counts), ErrConfig)
	}
	for i, c := range s.Counts {
		if c == 0 {
			return fmt.Errorf("heatmap: sparse: zero count at flat index %d: %w", i, ErrConfig)
		}
	}
	return nil
}

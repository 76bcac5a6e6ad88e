package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// DefaultSubBits is the histogram resolution every server uses (and
// what a zero subBits selects): 2^4 = 16 sub-buckets per power of two,
// a worst-case relative error of 1/16 = 6.25% on any reconstructed
// quantile. One histogram at this resolution is ~960 buckets — under
// 8KiB — so a stack of them per worker is cache noise, not a footprint.
const DefaultSubBits = 4

// maxSubBits bounds the resolution knob: 2^8 sub-buckets is 0.4%
// relative error at ~14KiB per histogram, past which the bucket array
// stops fitting anywhere useful.
const maxSubBits = 8

// Hist is a fixed-size, log-linear (HDR-style) histogram of int64
// values, safe for concurrent recording from any number of writers and
// snapshotting from any number of readers, with no locks and no
// allocation after construction.
//
// Values in [0, 2^subBits) get exact unit buckets; above that, each
// power-of-two range is split into 2^subBits equal sub-buckets, so the
// relative width of any bucket — and therefore the worst-case error of
// any quantile read from a snapshot — is 2^-subBits. Record is two
// atomic adds (a Stage pays them per batch for a sole writer). The
// count is the buckets' sum, so a snapshot is self-consistent even when
// taken mid-record (at worst it misses in-flight records entirely).
type Hist struct {
	subBits uint
	sum     atomic.Int64
	buckets []atomic.Uint64
}

// NewHist creates a histogram with 2^subBits sub-buckets per power of
// two. subBits outside [1, 8] (0 included) falls back to
// DefaultSubBits. The bucket count covers all of int64: 2^subBits
// exact unit buckets, then one 2^subBits-wide segment per remaining
// power of two up to bit 62.
func NewHist(subBits int) *Hist {
	if subBits <= 0 || subBits > maxSubBits {
		subBits = DefaultSubBits
	}
	sb := uint(subBits)
	n := (63-int(sb))<<sb + 1<<sb
	return &Hist{subBits: sb, buckets: make([]atomic.Uint64, n)}
}

// bucketIndex maps a value to its bucket. Exact below 2^subBits; above,
// segment = position of the value's top bit, sub-bucket = the next
// subBits bits.
func (h *Hist) bucketIndex(v uint64) int {
	sb := h.subBits
	if v < 1<<sb {
		return int(v)
	}
	msb := uint(bits.Len64(v)) - 1
	shift := msb - sb
	idx := int((uint64(msb-sb+1) << sb) + ((v >> shift) & (1<<sb - 1)))
	if idx >= len(h.buckets) {
		return len(h.buckets) - 1
	}
	return idx
}

// Record adds one observation. Negative values clamp to zero (they only
// arise from clock retrogression, which Nanos's monotonic source should
// preclude; clamping keeps the histogram total honest regardless).
// Zero allocations, two atomic adds, safe from any goroutine.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[h.bucketIndex(uint64(v))].Add(1)
	h.sum.Add(v)
}

// Stage is a single-owner front for a Hist: Record is plain arithmetic
// on a few staged buckets, and Fold publishes them with one atomic add
// per touched bucket plus one for the sum. Only the owner calls Record
// and Fold; readers snapshot Hist and see a value once it is folded.
type Stage struct {
	Hist *Hist
	n    int // staged slots in use
	last int // the slot the previous Record touched
	sum  int64
	idx  [stageSlots]int
	cnt  [stageSlots]uint64
}

const stageSlots = 8 // distinct buckets staged; a ninth folds the stage first

// Record stages one observation, clamped at zero like Hist.Record.
func (s *Stage) Record(v int64) {
	v = max(v, 0)
	b := s.Hist.bucketIndex(uint64(v))
	j := s.last // a run of same-bucket samples skips the scan
	if j >= s.n || s.idx[j] != b {
		for j = 0; j < s.n && s.idx[j] != b; j++ {
		}
		if j == stageSlots {
			s.Fold()
			j = 0
		}
		if j == s.n {
			s.idx[j], s.cnt[j] = b, 0
			s.n++
		}
		s.last = j
	}
	s.cnt[j]++
	s.sum += v
}

// Fold publishes the staged observations and empties the stage.
func (s *Stage) Fold() {
	for j := 0; j < s.n; j++ {
		s.Hist.buckets[s.idx[j]].Add(s.cnt[j])
	}
	s.Hist.sum.Add(s.sum)
	s.n, s.sum = 0, 0
}

// Snapshot copies the histogram's state. The copy is not an atomic
// cut of all buckets at one instant — records landing during the sweep
// may or may not be included — but every bucket value is itself a
// consistent atomic read, so totals never tear.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		SubBits: h.subBits,
		Sum:     h.sum.Load(),
		Buckets: make([]uint64, len(h.buckets)),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Hist, mergeable with other
// snapshots of the same resolution — the per-worker histograms are
// merged this way at scrape time, never on the hot path.
type HistSnapshot struct {
	SubBits uint
	Count   uint64
	Sum     int64
	Buckets []uint64
}

// Merge folds o into s. Snapshots must share a resolution; mismatched
// merges are ignored rather than corrupting the receiver (the resolution
// is a process-wide config knob, so a mismatch is a programming error
// surfaced by the absence of o's counts, not a runtime condition).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if o.SubBits != s.SubBits || len(o.Buckets) != len(s.Buckets) {
		if s.Count == 0 && s.Buckets == nil {
			*s = o
			s.Buckets = append([]uint64(nil), o.Buckets...)
		}
		return
	}
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// UpperBound is bucket i's inclusive upper edge — the value Quantile
// reports for observations landing in it, making every reported
// quantile an overestimate by at most the bucket's relative width.
func (s HistSnapshot) UpperBound(i int) int64 {
	sb := s.SubBits
	if i < 1<<sb {
		return int64(i)
	}
	block := uint(i) >> sb // 1-based power-of-two segment
	pos := uint64(i) & (1<<sb - 1)
	shift := block - 1
	return int64(((1<<sb)+pos+1)<<shift - 1)
}

// Quantile reports the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket holding the nearest rank ⌈q·n⌉, or 0 on an empty snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q*float64(s.Count) - 1e-9)) // 0.7·10 = 7.000000000000001
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return s.UpperBound(i)
		}
	}
	return s.UpperBound(len(s.Buckets) - 1)
}

// Mean reports the arithmetic mean of the recorded values (exact: the
// sum is tracked separately from the buckets), or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

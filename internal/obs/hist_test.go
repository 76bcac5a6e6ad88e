package obs

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestHistExactSmallValues pins the unit-bucket range: every value
// below 2^subBits must round-trip exactly through bucket and bound.
func TestHistExactSmallValues(t *testing.T) {
	h := NewHist(4)
	for v := int64(0); v < 16; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	for v := 0; v < 16; v++ {
		if s.Buckets[v] != 1 {
			t.Fatalf("value %d not in its exact bucket: %v", v, s.Buckets[:16])
		}
		if ub := s.UpperBound(v); ub != int64(v) {
			t.Fatalf("UpperBound(%d) = %d, want exact", v, ub)
		}
	}
	if s.Count != 16 || s.Sum != 120 {
		t.Fatalf("count %d sum %d, want 16 / 120", s.Count, s.Sum)
	}
}

// TestHistBucketBoundInvariant sweeps values across the whole range and
// checks the defining property of the log-linear layout: a value's
// bucket upper bound is >= the value and within the bucket's relative
// width (2^-subBits) of it.
func TestHistBucketBoundInvariant(t *testing.T) {
	for _, sb := range []int{1, 2, 4, 8} {
		h := NewHist(sb)
		snap := HistSnapshot{SubBits: uint(sb)}
		rng := rand.New(rand.NewSource(int64(sb)))
		for i := 0; i < 20000; i++ {
			// Log-uniform values up to 2^62.
			v := int64(1) << uint(rng.Intn(62))
			v += rng.Int63n(v)
			idx := h.bucketIndex(uint64(v))
			ub := snap.UpperBound(idx)
			if ub < v {
				t.Fatalf("sb=%d v=%d: upper bound %d below value (bucket %d)", sb, v, ub, idx)
			}
			maxErr := float64(v) / float64(int64(1)<<uint(sb))
			if float64(ub-v) > maxErr+1 {
				t.Fatalf("sb=%d v=%d: upper bound %d overshoots by %d (> %.0f)", sb, v, ub, ub-v, maxErr)
			}
			if idx > 0 {
				if lower := snap.UpperBound(idx - 1); lower >= v {
					t.Fatalf("sb=%d v=%d: previous bucket bound %d not below value", sb, v, lower)
				}
			}
		}
	}
}

// TestHistQuantileWithinErrorBound is the property test behind the
// scrape endpoints' quantiles: against a random sample, every reported
// quantile must be >= the exact order statistic and within the bucket
// relative error of it. Also exercised merged: two disjoint halves
// recorded into separate histograms and merged must report the same
// buckets as one histogram fed everything.
func TestHistQuantileWithinErrorBound(t *testing.T) {
	const sb = 4
	rng := rand.New(rand.NewSource(7))
	whole := NewHist(sb)
	h1, h2 := NewHist(sb), NewHist(sb)
	values := make([]int64, 0, 30000)
	for i := 0; i < 30000; i++ {
		var v int64
		switch rng.Intn(3) {
		case 0:
			v = rng.Int63n(1000) // sub-microsecond latencies
		case 1:
			v = 50_000 + rng.Int63n(500_000) // typical service times
		default:
			v = rng.Int63n(1 << 32) // heavy tail
		}
		values = append(values, v)
		whole.Record(v)
		if i%2 == 0 {
			h1.Record(v)
		} else {
			h2.Record(v)
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })

	merged := h1.Snapshot()
	merged.Merge(h2.Snapshot())
	ws := whole.Snapshot()
	if merged.Count != ws.Count || merged.Sum != ws.Sum {
		t.Fatalf("merge drifted: count %d/%d sum %d/%d", merged.Count, ws.Count, merged.Sum, ws.Sum)
	}
	for i := range ws.Buckets {
		if ws.Buckets[i] != merged.Buckets[i] {
			t.Fatalf("merged bucket %d = %d, whole = %d", i, merged.Buckets[i], ws.Buckets[i])
		}
	}

	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := values[int(q*float64(len(values)-1))]
		got := merged.Quantile(q)
		if got < exact {
			t.Fatalf("q=%.3f: histogram %d below exact %d", q, got, exact)
		}
		maxErr := float64(exact)/16 + 1
		if float64(got-exact) > maxErr+float64(exact)/16 {
			// Allow one extra bucket width of rank slop at the edges.
			t.Fatalf("q=%.3f: histogram %d overshoots exact %d beyond bucket error", q, got, exact)
		}
	}
}

// TestHistConcurrentRecordSnapshot hammers Record from several
// goroutines while snapshotting concurrently: snapshots must always be
// internally consistent (count == bucket sum by construction — checked
// monotonic) and the final tally must be exact.
func TestHistConcurrentRecordSnapshot(t *testing.T) {
	const (
		writers = 8
		each    = 20000
	)
	h := NewHist(4)
	stop := make(chan struct{})
	var readers, writersWG sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader
		defer readers.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count < last {
				t.Errorf("snapshot count went backwards: %d -> %d", last, s.Count)
				return
			}
			last = s.Count
			var sum uint64
			for _, n := range s.Buckets {
				sum += n
			}
			if sum != s.Count {
				t.Errorf("snapshot buckets sum %d != count %d", sum, s.Count)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < each; i++ {
				h.Record(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	if got := h.Snapshot().Count; got != writers*each {
		t.Fatalf("final count %d, want %d", got, writers*each)
	}
}

// TestHistQuantileNearestRank pins the rank rule on the exact unit
// buckets: the q-quantile of n values is the ⌈q·n⌉-th smallest, so p90
// of 1..15 is 14 (rank 13.5 rounds up), not 13.
func TestHistQuantileNearestRank(t *testing.T) {
	h := NewHist(4)
	for v := int64(1); v <= 15; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.01, 1}, {0.1, 2}, {0.5, 8}, {0.9, 14}, {0.99, 15}, {1, 15}} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) of 1..15 = %d, want %d", c.q, got, c.want)
		}
	}
	// Where q·n is an integer the rank is exactly it, float rounding
	// notwithstanding (0.7·10 evaluates to 7.000000000000001).
	h = NewHist(4)
	for v := int64(1); v <= 10; v++ {
		h.Record(v)
	}
	for q, want := range map[float64]int64{0.3: 3, 0.6: 6, 0.7: 7, 0.9: 9} {
		if got := h.Snapshot().Quantile(q); got != want {
			t.Errorf("Quantile(%v) of 1..10 = %d, want %d", q, got, want)
		}
	}
}

// TestStageFoldMatchesRecord: values staged and folded land in exactly
// the buckets and sum that Hist.Record gives them — with folds at random
// points, and with more distinct buckets between folds than the stage
// holds, so the early fold is exercised too.
func TestStageFoldMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	direct, staged := NewHist(4), NewHist(4)
	st := Stage{Hist: staged}
	for i := 0; i < 20000; i++ {
		var v int64
		switch rng.Intn(4) {
		case 0:
			v = rng.Int63n(16) // exact unit buckets
		case 1:
			v = rng.Int63n(1 << 40) // far more distinct buckets than slots
		case 2:
			v = -rng.Int63n(5) // clamps to zero
		default:
			v = 40_000 + rng.Int63n(4_000) // a pass's few service buckets
		}
		direct.Record(v)
		st.Record(v)
		if rng.Intn(64) == 0 {
			st.Fold()
		}
	}
	st.Fold()
	d, s := direct.Snapshot(), staged.Snapshot()
	if d.Count != s.Count || d.Sum != s.Sum {
		t.Fatalf("staged count %d sum %d, direct count %d sum %d", s.Count, s.Sum, d.Count, d.Sum)
	}
	for i := range d.Buckets {
		if d.Buckets[i] != s.Buckets[i] {
			t.Fatalf("bucket %d: staged %d, direct %d", i, s.Buckets[i], d.Buckets[i])
		}
	}
	// Nothing is published before a fold; an empty fold publishes nothing.
	st.Record(12345)
	if got := staged.Snapshot().Count; got != d.Count {
		t.Fatalf("unfolded value visible: count %d, want %d", got, d.Count)
	}
	st.Fold()
	st.Fold()
	if got := staged.Snapshot().Count; got != d.Count+1 {
		t.Fatalf("count after fold %d, want %d", got, d.Count+1)
	}
}

// TestStageConcurrentFoldSnapshot: readers snapshot while the owner
// stages and folds. Every snapshot must be self-consistent and never go
// backwards, and the final tally must be exact.
func TestStageConcurrentFoldSnapshot(t *testing.T) {
	const each = 50000
	h := NewHist(4)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				var sum uint64
				for _, n := range s.Buckets {
					sum += n
				}
				if sum != s.Count || s.Count < last {
					t.Errorf("snapshot count %d (buckets %d, previous %d)", s.Count, sum, last)
					return
				}
				last = s.Count
			}
		}()
	}
	st := Stage{Hist: h}
	rng := rand.New(rand.NewSource(3))
	var want int64
	for i := 0; i < each; i++ {
		v := rng.Int63n(1 << 20)
		want += v
		st.Record(v)
		if i%32 == 31 {
			st.Fold()
		}
	}
	st.Fold()
	close(stop)
	readers.Wait()
	if s := h.Snapshot(); s.Count != each || s.Sum != want {
		t.Fatalf("final count %d sum %d, want %d / %d", s.Count, s.Sum, each, want)
	}
}

// TestHistRecordAllocs pins the hot-path contract: recording allocates
// nothing.
func TestHistRecordAllocs(t *testing.T) {
	h := NewHist(0)
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(12345) }); allocs != 0 {
		t.Fatalf("Record allocates %.1f per call, want 0", allocs)
	}
	st := Stage{Hist: h}
	if allocs := testing.AllocsPerRun(1000, func() { st.Record(12345); st.Fold() }); allocs != 0 {
		t.Fatalf("Stage Record+Fold allocates %.1f per call, want 0", allocs)
	}
}

// TestWritePromCumulative checks the exported bucket series is
// cumulative, sparse and ends at +Inf == _count.
func TestWritePromCumulative(t *testing.T) {
	h := NewHist(4)
	for _, v := range []int64{5, 5, 1000, 1_000_000} {
		h.Record(v)
	}
	var b strings.Builder
	WriteProm(&b, "test_seconds", "help text", h.Snapshot(), 1e-9)
	out := b.String()
	if !strings.Contains(out, "# TYPE test_seconds histogram") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `test_seconds_bucket{le="+Inf"} 4`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "test_seconds_count 4") {
		t.Fatalf("missing count:\n%s", out)
	}
	// Sparse: far fewer bucket lines than the ~960 buckets.
	if n := strings.Count(out, "_bucket{"); n > 6 {
		t.Fatalf("expected sparse bucket export, got %d lines:\n%s", n, out)
	}
}

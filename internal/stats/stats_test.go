package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEWMAFirstObservationSeeds(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Seen() {
		t.Fatal("fresh EWMA claims to have seen samples")
	}
	e.Observe(10)
	if got := e.Value(); got != 10 {
		t.Fatalf("first observation should seed value: got %v", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.1)
	for i := 0; i < 500; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("EWMA of constant stream = %v, want 42", e.Value())
	}
}

func TestEWMATracksShift(t *testing.T) {
	e := NewEWMA(0.25)
	for i := 0; i < 100; i++ {
		e.Observe(0)
	}
	for i := 0; i < 100; i++ {
		e.Observe(100)
	}
	if e.Value() < 99 {
		t.Fatalf("EWMA did not track level shift: %v", e.Value())
	}
}

func TestQueueEWMAAlphaRule(t *testing.T) {
	// Paper §3.3: max local accept queue length 64 -> alpha 1/128.
	e := NewQueueEWMA(64)
	if got, want := e.Alpha(), 1.0/128; got != want {
		t.Fatalf("alpha = %v, want %v", got, want)
	}
}

func TestQueueEWMARejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive max length")
		}
	}()
	NewQueueEWMA(0)
}

func TestEWMARejectsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v should panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(3)
	e.Reset()
	if e.Seen() || e.Value() != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: EWMA stays within the [min, max] hull of its inputs.
func TestEWMABoundedByInputHull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEWMA(0.2)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 200; i++ {
			v := rng.Float64() * 1000
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			e.Observe(v)
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	med := h.Quantile(0.5)
	if med < 450 || med > 560 {
		t.Fatalf("median of 1..1000 = %v, want ~500 within bucket error", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900 || p99 > 1050 {
		t.Fatalf("p99 = %v, want ~990", p99)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 1000 {
		t.Fatalf("extremes: %v %v", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramMeanMinMax(t *testing.T) {
	h := NewHistogram(2)
	for _, v := range []float64{2, 4, 6} {
		h.Observe(v)
	}
	if h.Mean() != 4 || h.Min() != 2 || h.Max() != 6 {
		t.Fatalf("mean/min/max = %v/%v/%v", h.Mean(), h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.CDF() != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("negative sample not clamped: %v", h.Min())
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewLatencyHistogram()
		for i := 0; i < 300; i++ {
			h.Observe(rng.ExpFloat64() * 100)
		}
		pts := h.CDF()
		if len(pts) == 0 {
			return false
		}
		prevV, prevF := -1.0, 0.0
		for _, p := range pts {
			if p.Value <= prevV || p.Fraction < prevF {
				return false
			}
			prevV, prevF = p.Value, p.Fraction
		}
		return math.Abs(pts[len(pts)-1].Fraction-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewLatencyHistogram(), NewLatencyHistogram()
	for i := 0; i < 100; i++ {
		a.Observe(10)
		b.Observe(1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 10 || a.Max() != 1000 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	med := a.Quantile(0.5)
	if med > 11 {
		t.Fatalf("median after merge = %v, want <= bucket containing 10", med)
	}
	// Merging nil or empty is a no-op.
	a.Merge(nil)
	a.Merge(NewLatencyHistogram())
	if a.Count() != 200 {
		t.Fatal("no-op merges changed the histogram")
	}
}

func TestHistogramMergeBaseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a, b := NewHistogram(1.05), NewHistogram(2)
	b.Observe(1)
	a.Merge(b)
}

// Property: quantile estimates are within one bucket (5%) of exact.
func TestHistogramQuantileAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewLatencyHistogram()
		var exact Sample
		for i := 0; i < 500; i++ {
			v := 1 + rng.Float64()*10000
			h.Observe(v)
			exact.Observe(v)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			est, ref := h.Quantile(q), exact.Quantile(q)
			if est < ref*0.9 || est > ref*1.11 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 10; i >= 1; i-- {
		s.Observe(float64(i))
	}
	if s.Quantile(0.5) != 5 {
		t.Fatalf("median = %v, want 5", s.Quantile(0.5))
	}
	if s.Quantile(0.9) != 9 {
		t.Fatalf("p90 = %v, want 9", s.Quantile(0.9))
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 10 {
		t.Fatal("extreme quantiles wrong")
	}
	if s.Mean() != 5.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 10 {
		t.Fatalf("max = %v", s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 || s.Count() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleObserveAfterQuantile(t *testing.T) {
	var s Sample
	s.Observe(5)
	_ = s.Quantile(0.5)
	s.Observe(1) // must re-sort
	if s.Quantile(0) != 1 {
		t.Fatal("sample not re-sorted after new observation")
	}
}

func TestEWMAObserveNMatchesRepeatedObserve(t *testing.T) {
	a := NewEWMA(1.0 / 128)
	b := NewEWMA(1.0 / 128)
	a.Observe(40)
	b.Observe(40)
	for i := 0; i < 257; i++ {
		a.Observe(3)
	}
	b.ObserveN(3, 257)
	if math.Abs(a.Value()-b.Value()) > 1e-9 {
		t.Fatalf("ObserveN(3, 257) = %v, repeated Observe = %v", b.Value(), a.Value())
	}
}

func TestEWMAObserveNSeedsAndIgnoresNonPositive(t *testing.T) {
	e := NewEWMA(0.5)
	e.ObserveN(7, 0)
	if e.Seen() {
		t.Fatal("ObserveN with n=0 should be a no-op")
	}
	e.ObserveN(7, 3)
	if got := e.Value(); got != 7 {
		t.Fatalf("first ObserveN should seed value: got %v", got)
	}
}

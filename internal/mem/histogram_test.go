package mem

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

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
		exact := make([]float64, 500)
		for i := range exact {
			v := 1 + rng.Float64()*10000
			h.Observe(v)
			exact[i] = v
		}
		sort.Float64s(exact)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			// Nearest rank, as an exact reference.
			est, ref := h.Quantile(q), exact[int(math.Ceil(q*500))-1]
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

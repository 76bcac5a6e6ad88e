package mem

import (
	"fmt"
	"math"
)

// Histogram is a log-bucketed streaming histogram of non-negative values.
// The memory model keeps its access-latency distributions (Figure 4) in
// it, where only quantiles and CDF shapes matter, not exact sample
// storage.
type Histogram struct {
	// buckets[i] counts samples v with bound(i-1) < v <= bound(i),
	// where bound(i) = floor(base^(i+1)). Bucket boundaries grow
	// geometrically so that relative error is bounded by base-1.
	buckets []uint64
	base    float64
	logBase float64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// NewHistogram returns a histogram with geometric buckets of the given
// growth factor. A factor of 1.05 keeps quantile error under 5%.
func NewHistogram(base float64) *Histogram {
	if base <= 1 {
		panic("mem: histogram base must be > 1")
	}
	return &Histogram{
		base:    base,
		logBase: math.Log(base),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// NewLatencyHistogram returns the histogram configuration used for
// cycle-latency distributions: 5% geometric buckets.
func NewLatencyHistogram() *Histogram { return NewHistogram(1.05) }

func (h *Histogram) bucketIndex(v float64) int {
	if v < 1 {
		return 0
	}
	return int(math.Log(v)/h.logBase) + 1
}

// bucketUpper reports the inclusive upper bound of bucket i.
func (h *Histogram) bucketUpper(i int) float64 {
	if i == 0 {
		return 1
	}
	return math.Pow(h.base, float64(i))
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	i := h.bucketIndex(v)
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean reports the sample mean, or zero with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest sample, or zero with no samples.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest sample, or zero with no samples.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile reports an estimate of the q-quantile (q in [0, 1]) using the
// bucket upper bound, so estimates are biased at most one bucket upward.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			upper := h.bucketUpper(i)
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.Max()
}

// CDFPoint is one point of a cumulative distribution: the fraction
// Fraction of samples with value <= Value.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the cumulative distribution over non-empty buckets.
func (h *Histogram) CDF() []CDFPoint {
	if h.count == 0 {
		return nil
	}
	pts := make([]CDFPoint, 0, 32)
	var cum uint64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		cum += c
		v := h.bucketUpper(i)
		if v > h.max {
			v = h.max
		}
		pts = append(pts, CDFPoint{Value: v, Fraction: float64(cum) / float64(h.count)})
	}
	return pts
}

// Merge folds other into h. The two histograms must share a base.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if other.base != h.base {
		panic("mem: merging histograms with different bases")
	}
	for len(h.buckets) < len(other.buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// String renders a compact summary for logs and test failures.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f}",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())
}

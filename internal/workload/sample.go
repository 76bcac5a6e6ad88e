package workload

import (
	"math"
	"sort"
)

// Sample is an exact-storage sample set for small populations where the
// paper reports exact medians (for example per-connection service times).
type Sample struct {
	values []float64
	sorted bool
}

// Observe appends one value.
func (s *Sample) Observe(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// Count reports the number of observations.
func (s *Sample) Count() int { return len(s.values) }

// Quantile reports the exact q-quantile by nearest-rank.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if q <= 0 {
		return s.values[0]
	}
	rank := int(math.Ceil(q*float64(len(s.values)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.values) {
		rank = len(s.values) - 1
	}
	return s.values[rank]
}

// Mean reports the arithmetic mean, or zero with no samples.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Max reports the largest observation, or zero with no samples.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	return s.values[len(s.values)-1]
}

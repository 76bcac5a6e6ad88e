// Package stats provides the small statistical primitives shared by the
// simulator and the server: the exponentially weighted moving average
// from §3.3 of the paper, the gauge and pool counters the server's
// snapshots read, and the simulator's streaming histograms and CDFs.
//
// Everything in this package is deterministic and allocation-light; hot
// paths update these structures (every accept-queue push updates an
// EWMA, every sampled memory access lands in a histogram).
package stats

import "math"

// EWMA is an exponentially weighted moving average.
//
// Affinity-Accept (paper §3.3) tracks the long-term length of each per-core
// accept queue with an EWMA whose alpha parameter is one over twice the
// maximum local accept queue length, so that the average tracks the slowly
// moving mean while the instantaneous length oscillates around it.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns an EWMA with the given alpha in (0, 1].
// Larger alphas weigh recent observations more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// NewQueueEWMA returns the EWMA the paper prescribes for an accept queue
// with the given maximum local length: alpha = 1 / (2 * maxLocalLen).
// A max length of 64 therefore yields alpha = 1/128.
func NewQueueEWMA(maxLocalLen int) *EWMA {
	if maxLocalLen <= 0 {
		panic("stats: queue EWMA needs a positive max length")
	}
	return NewEWMA(1 / (2 * float64(maxLocalLen)))
}

// Observe folds a new sample into the average.
// The first observation seeds the average directly.
func (e *EWMA) Observe(sample float64) {
	if !e.seen {
		e.value = sample
		e.seen = true
		return
	}
	e.value += e.alpha * (sample - e.value)
}

// ObserveN folds n consecutive observations of the same sample into the
// average in closed form: v' = sample + (v - sample)·(1-alpha)^n.
// Pollers that sample a queue far less often than events arrive use it
// to catch the average up with the wall-clock time they slept through.
func (e *EWMA) ObserveN(sample float64, n int) {
	if n <= 0 {
		return
	}
	if !e.seen {
		e.value = sample
		e.seen = true
		return
	}
	e.value = sample + (e.value-sample)*math.Pow(1-e.alpha, float64(n))
}

// Value reports the current average, or zero before any observation.
func (e *EWMA) Value() float64 { return e.value }

// Alpha reports the smoothing parameter.
func (e *EWMA) Alpha() float64 { return e.alpha }

// Seen reports whether any sample has been observed.
func (e *EWMA) Seen() bool { return e.seen }

// Reset discards all state, as when a listen socket is closed and reopened.
func (e *EWMA) Reset() {
	e.value = 0
	e.seen = false
}

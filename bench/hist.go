package main

import "math/bits"

// The loader's latency histogram: log-linear buckets over nanoseconds,
// exact below 2^histSubBits and 2^histSubBits sub-buckets per power of
// two above, so a quantile is off by at most 2^-histSubBits (0.8%) of
// its value. The bucket array is part of the value: a run's histograms
// are allocated once, before the timed window, and recording never
// allocates — the loader's memory stays constant however long it runs,
// which keeps rss_mb a property of the server and not of the run length.
//
// internal/obs has a histogram of the same kind, and this is on purpose
// not that one: obs.Hist is part of the server under test (it is on the
// request path, and obs.hist_record_ns prices it). A later change to its
// resolution, layout or cost would then change how every latency here is
// read, on the change's side of a comparison and not on the parent's.
// The instrument stays in this directory, where such a change cannot
// reach it.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values of 2^histMaxExp ns (68 s) and above land in the last bucket.
	histMaxExp  = 36
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	if v >= 1<<histMaxExp {
		return histBuckets - 1
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)<<histSubBits | int(v>>shift)&(histSub-1)
}

// histBounds returns bucket i's lowest value and its width.
func histBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	shift := i>>histSubBits - 1
	return int64(histSub|i&(histSub-1)) << shift, 1 << shift
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile (the value at sorted
// position ceil(q*n)), placed inside its bucket by the rank's position
// among the bucket's samples. It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+uint64(c) >= rank {
			lo, width := histBounds(i)
			if width == 1 {
				return float64(lo)
			}
			return float64(lo) + float64(width)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += uint64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return float64(lo)
}

// shareAbove returns the share of samples in buckets that start at or
// above ns.
func (h *hist) shareAbove(ns int64) float64 {
	if h.n == 0 {
		return 0
	}
	var above uint64
	for i := histIndex(ns); i < histBuckets; i++ {
		above += uint64(h.counts[i])
	}
	return float64(above) / float64(h.n)
}

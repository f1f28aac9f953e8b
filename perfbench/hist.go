package main

import "math/bits"

// histSubBits sets the histogram's precision: every power-of-two range is
// split into 2^histSubBits linear buckets, so a reported percentile is
// within 1/2^(histSubBits+1) (0.4%) of a recorded value.
const histSubBits = 7

const (
	histSub     = 1 << histSubBits
	histMaxExp  = 42 // values up to 2^42 ns (about 73 minutes)
	histBuckets = (histMaxExp - histSubBits + 2) * histSub
)

// Hist is a fixed-bucket, log-linear latency histogram of nanosecond
// values. Values below 2^histSubBits get one bucket each; above that, each
// power-of-two range gets histSub equal buckets. It has no lock: each
// goroutine records into its own Hist and the owner merges them once the
// recorders are done.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v in [2^exp, 2^(exp+1))
	if exp > histMaxExp {
		return histBuckets - 1
	}
	shift := exp - histSubBits
	return (shift+1)*histSub + int(uint64(v)>>shift) - histSub
}

// bucketMid returns the midpoint of the integers bucket b holds.
func bucketMid(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	shift := b/histSub - 1
	lo := uint64(b%histSub+histSub) << shift
	return float64(lo) + float64((uint64(1)<<shift)-1)/2
}

// Record adds one value (negative values count as 0).
func (h *Hist) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// Merge adds every count of o to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count reports the number of recorded values.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1): the value of
// rank ceil(q·n), as its bucket's midpoint. It returns 0 on an empty
// histogram.
func (h *Hist) Quantile(q float64) float64 {
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
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(histBuckets - 1)
}

// QuantileMs is Quantile converted from nanoseconds to milliseconds.
func (h *Hist) QuantileMs(q float64) float64 { return h.Quantile(q) / 1e6 }

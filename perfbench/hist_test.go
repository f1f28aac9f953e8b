package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestHistQuantilesMatchSortedReference records seeded latency-like
// samples into three histograms, merges them, and checks every percentile
// against the nearest-rank value of the sorted samples: it must lie within
// the bucket's half width, 1/256 of the value.
func TestHistQuantilesMatchSortedReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		rng := rand.New(rand.NewPCG(seed, 99))
		var parts [3]Hist
		var ref []int64
		for i := range 200_000 {
			// Log-normal around 0.5 ms with a heavy tail, plus exact small values.
			v := int64(math.Exp(rng.NormFloat64()*1.5) * 5e5)
			if i%50 == 0 {
				v = int64(rng.IntN(300))
			}
			ref = append(ref, v)
			parts[i%3].Record(v)
		}
		var h Hist
		for i := range parts {
			h.Merge(&parts[i])
		}
		if h.Count() != uint64(len(ref)) {
			t.Fatalf("count %d, want %d", h.Count(), len(ref))
		}
		slices.Sort(ref)
		for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q*float64(len(ref)))) - 1
			want := float64(ref[rank])
			got := h.Quantile(q)
			if math.Abs(got-want) > want/256+0.5 {
				t.Errorf("seed %d q %v: got %.1f, want %.1f", seed, q, got, want)
			}
		}
	}
}

func TestHistBucketsCoverTheirValues(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 257, 1000, 1 << 20, 1<<20 + 12345, 1 << 40, 1<<42 - 1} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d is below the previous bucket %d", v, b, prev)
		}
		prev = b
		if mid := bucketMid(b); math.Abs(mid-float64(v)) > float64(v)/256+0.5 {
			t.Errorf("value %d: bucket %d midpoint %.1f is too far", v, b, mid)
		}
	}
	if b := bucketOf(1 << 50); b != histBuckets-1 {
		t.Errorf("overflow bucket %d, want %d", b, histBuckets-1)
	}
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report 0")
	}
}

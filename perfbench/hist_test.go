package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantilesMatchSortedReference checks every reported quantile
// against the exact order statistic of the same values: the error is
// bounded by half a bucket, i.e. 1/(2·histSub) of the value.
func TestHistQuantilesMatchSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	gens := map[string]func() int64{
		"small":     func() int64 { return r.Int63n(200) },
		"lognormal": func() int64 { return int64(math.Exp(r.NormFloat64()*2 + 9)) },
		"bimodal": func() int64 {
			if r.Intn(10) == 0 {
				return 3_000_000 + r.Int63n(2_000_000)
			}
			return 1_000 + r.Int63n(500)
		},
	}
	for name, gen := range gens {
		var parts [4]Hist
		vals := make([]int64, 100_000)
		for i := range vals {
			vals[i] = gen()
			parts[i%len(parts)].Observe(vals[i])
		}
		var h Hist
		for i := range parts {
			h.Merge(&parts[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if h.Count() != int64(len(vals)) {
			t.Fatalf("%s: count %d, want %d", name, h.Count(), len(vals))
		}
		for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(len(vals))))
			want := vals[rank-1]
			got := h.Quantile(q)
			tol := want/(2*histSub) + 1
			if got < want-tol || got > want+tol {
				t.Errorf("%s: q%.3f = %d, sorted reference %d (tolerance %d)", name, q, got, want, tol)
			}
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prevEnd := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, w := histBounds(i)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevEnd)
		}
		if got := histIndex(lo); got != i {
			t.Fatalf("histIndex(%d) = %d, want %d", lo, got, i)
		}
		if got := histIndex(lo + w - 1); i < histBuckets-1 && got != i {
			t.Fatalf("histIndex(%d) = %d, want %d", lo+w-1, got, i)
		}
		prevEnd = lo + w
	}
}

func TestHistObserveDoesNotAllocate(t *testing.T) {
	var h Hist
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Observe allocates %.1f times per call", n)
	}
}

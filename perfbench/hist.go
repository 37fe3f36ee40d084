package main

import (
	"math/bits"
	"sync/atomic"
)

// Hist is a latency histogram with fixed log-linear buckets over
// nanosecond values: values below histSub are exact, and above that each
// power-of-two range splits into histSub equal buckets, so a bucket is
// never wider than 1/histSub of its lower bound (under 0.8%).
//
// Buckets are atomic counters, so a Hist is lock-free: the op loop gives
// each client process its own Hist (uncontended, no allocation per
// Observe) and Merge folds them together after the run; the traced run's
// wrappers share one Hist per layer across goroutines.
type Hist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

const (
	histSubBits  = 7
	histSub      = 1 << histSubBits
	histMaxShift = 41 // values ≥ 2^48 ns (~78 h) land in the last bucket
	histBuckets  = histSub + (histMaxShift+1)*histSub
)

// histIndex maps a value to its bucket.
func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	if shift > histMaxShift {
		return histBuckets - 1
	}
	return histSub + shift*histSub + int(uint64(v)>>uint(shift)) - histSub
}

// histBounds returns a bucket's lowest value and width.
func histBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	shift := (i - histSub) / histSub
	mant := int64(histSub + (i-histSub)%histSub)
	return mant << uint(shift), 1 << uint(shift)
}

// Observe records one value in nanoseconds.
func (h *Hist) Observe(ns int64) {
	h.buckets[histIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(max(ns, 0)))
}

// Count is the number of values recorded.
func (h *Hist) Count() int64 { return int64(h.count.Load()) }

// SumNs is the total of the recorded values.
func (h *Hist) SumNs() int64 { return int64(h.sum.Load()) }

// Merge adds o's values to h. Call it once o's writers have stopped.
func (h *Hist) Merge(o *Hist) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Quantile returns the value at quantile q (0 < q ≤ 1) as the midpoint of
// the bucket holding the ceil(q·n)-th smallest value; 0 when empty.
func (h *Hist) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	rank = min(max(rank, 1), n)
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			lo, w := histBounds(i)
			return lo + (w-1)/2
		}
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + (w-1)/2
}

package mapreduce

import (
	"math"
	"math/bits"
)

// The shuffle groups records by key with a stable LSD radix sort on the
// int32 key in 11-bit digits: one pass when a partition's key span is
// under 2^11 (a single key included), two up to 2^22 (the node ids of
// graphs with up to ~4M nodes), three up to the full int32 range.
const (
	digitBits = 11
	digitSize = 1 << digitBits
	maxDigits = (32 + digitBits - 1) / digitBits
)

// groupByKey reads chunks in order as one record stream, sorts it
// stably by key, and calls fn once per distinct key in ascending key
// order with that key's values in stream order. Each values slice is
// capped at its own end, so fn may append to it without touching the
// next group. It returns the number of records. The scratch arrays are
// allocated per call: speculative recovery runs two copies of the same
// task at once.
func groupByKey[V any](chunks [][]Pair[int32, V], fn func(k int32, vals []V)) int {
	n := 0
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, c := range chunks {
		n += len(c)
		for _, r := range c {
			lo = min(lo, r.Key)
			hi = max(hi, r.Key)
		}
	}
	if n == 0 {
		return 0
	}
	// Records sort by their key's offset from the minimum, computed in
	// uint32 so that a span of the full int32 range cannot overflow; the
	// offset order is the signed key order.
	digit := func(k int32, d int) uint32 {
		return (uint32(k) - uint32(lo)) >> (d * digitBits) & (digitSize - 1)
	}
	digits := max(1, (bits.Len32(uint32(hi)-uint32(lo))+digitBits-1)/digitBits)

	// Histogram every digit in one read of the chunks, then turn each
	// histogram into the start offsets of its buckets.
	var pos [maxDigits][digitSize]int
	for _, c := range chunks {
		for _, r := range c {
			for d := 0; d < digits; d++ {
				pos[d][digit(r.Key, d)]++
			}
		}
	}
	for d := 0; d < digits; d++ {
		sum := 0
		for b, c := range pos[d] {
			pos[d][b] = sum
			sum += c
		}
	}

	// The first pass scatters straight from the chunks into a record
	// buffer (the middle pass of a three-digit sort into a second one),
	// and the last writes keys and values into separate arrays.
	keys, vals := make([]int32, n), make([]V, n)
	place := func(r Pair[int32, V], d int) {
		b := digit(r.Key, d)
		i := pos[d][b]
		pos[d][b]++
		keys[i], vals[i] = r.Key, r.Value
	}
	if digits == 1 {
		for _, c := range chunks {
			for _, r := range c {
				place(r, 0)
			}
		}
	} else {
		src := make([]Pair[int32, V], n)
		for _, c := range chunks {
			for _, r := range c {
				b := digit(r.Key, 0)
				src[pos[0][b]] = r
				pos[0][b]++
			}
		}
		if digits == 3 {
			dst := make([]Pair[int32, V], n)
			for _, r := range src {
				b := digit(r.Key, 1)
				dst[pos[1][b]] = r
				pos[1][b]++
			}
			src = dst
		}
		for _, r := range src {
			place(r, digits-1)
		}
	}

	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		fn(keys[i], vals[i:j:j])
		i = j
	}
	return n
}

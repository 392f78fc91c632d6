// Package bitvec implements the bit vector signatures (BVS) behind the
// TAD* algorithm (§III-B2). A signature records, for one object, which
// clusters of a crowd contain it — bit i set means the object appears in
// the i-th cluster. Counting participation is then a Hamming-weight
// computation, and dividing a crowd into sub-crowds is a bitwise AND with a
// range mask, so the signatures are built once and reused by every
// recursion of TAD.
//
// Two popcount paths are provided: PopcountMasked uses the word-level
// math/bits intrinsic (the production path), and PopcountMaskedTree is
// the paper's binary-tree mask method [15], kept both for fidelity and for
// the ablation benchmark comparing the two.
package bitvec

import (
	"fmt"
	"math/bits"
)

// Vector is a fixed-length bit vector. The zero value is an empty vector;
// use New to size one.
type Vector struct {
	n     int // logical length in bits
	words []uint64
}

// New returns an all-zero vector of n bits.
func New(n int) Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// NewBatch returns count all-zero vectors of n bits carved out of one
// shared allocation — the signature-store fast path, where a detector
// admits objects one at a time but by the thousand. Each vector's word
// capacity is exact, so a later Grow across a word boundary re-allocates
// it independently; until then the vectors are fully independent windows.
func NewBatch(count, n int) []Vector {
	if n < 0 || count < 0 {
		panic("bitvec: negative batch dimensions")
	}
	w := (n + 63) / 64
	words := make([]uint64, count*w)
	out := make([]Vector, count)
	for i := range out {
		out[i] = Vector{n: n, words: words[i*w : (i+1)*w : (i+1)*w]}
	}
	return out
}

// Len returns the logical length in bits.
func (v Vector) Len() int { return v.n }

// Set sets bit i to 1.
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Grow returns a vector of n bits whose first v.Len() bits are v's. Word
// capacity grows geometrically, so a signature that is extended tick by
// tick — the incremental detector's hot path (§III-C2) — re-allocates
// O(log n) times over its life instead of once per batch. The returned
// vector shares v's words when capacity allows; treat v as consumed.
func (v Vector) Grow(n int) Vector {
	if n < v.n {
		panic(fmt.Sprintf("bitvec: Grow from %d to %d bits", v.n, n))
	}
	w := (n + 63) / 64
	if w <= cap(v.words) {
		words := v.words[:w]
		// Newly exposed words may hold data from a previous, larger use
		// of the backing array; clear them.
		for i := len(v.words); i < w; i++ {
			words[i] = 0
		}
		return Vector{n: n, words: words}
	}
	grown := 2 * cap(v.words)
	if grown < w {
		grown = w
	}
	words := make([]uint64, w, grown)
	copy(words, v.words)
	return Vector{n: n, words: words}
}

// And overwrites v with v AND m. Both vectors must have the same length.
// It returns v for chaining.
func (v Vector) And(m Vector) Vector {
	if v.n != m.n {
		panic("bitvec: And of different lengths")
	}
	for i := range v.words {
		v.words[i] &= m.words[i]
	}
	return v
}

// Popcount returns the Hamming weight of v using the word-level intrinsic.
func (v Vector) Popcount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// PopcountMasked returns the Hamming weight of v AND m without
// materialising the intersection — the hot operation of TAD*'s Test step,
// where m selects the clusters of the current sub-crowd.
func (v Vector) PopcountMasked(m Vector) int {
	if v.n != m.n {
		panic("bitvec: PopcountMasked of different lengths")
	}
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w & m.words[i])
	}
	return c
}

// PopcountMaskedTree is PopcountMasked implemented with the paper's
// binary-tree mask method (§III-B2, after Knuth [15]): sum 1-bit fields
// into 2-bit fields, then 4-bit, 8-bit, 16-bit and 32-bit fields, using
// log2(64) = 6 mask-and-add steps per word.
func (v Vector) PopcountMaskedTree(m Vector) int {
	if v.n != m.n {
		panic("bitvec: PopcountMaskedTree of different lengths")
	}
	c := 0
	for i, w := range v.words {
		c += popcountTree64(w & m.words[i])
	}
	return c
}

// popcountTree64 is the 6-step binary-tree Hamming weight of one word.
func popcountTree64(x uint64) int {
	const (
		m1  = 0x5555555555555555 // 01010101...
		m2  = 0x3333333333333333 // 00110011...
		m4  = 0x0f0f0f0f0f0f0f0f
		m8  = 0x00ff00ff00ff00ff
		m16 = 0x0000ffff0000ffff
		m32 = 0x00000000ffffffff
	)
	x = (x & m1) + ((x >> 1) & m1)
	x = (x & m2) + ((x >> 2) & m2)
	x = (x & m4) + ((x >> 4) & m4)
	x = (x & m8) + ((x >> 8) & m8)
	x = (x & m16) + ((x >> 16) & m16)
	x = (x & m32) + ((x >> 32) & m32)
	return int(x)
}

// RangeMask returns a vector of n bits with bits [lo, hi) set: the Divide
// step's sub-crowd selector. Panics unless 0 ≤ lo ≤ hi ≤ n.
func RangeMask(n, lo, hi int) Vector {
	if lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("bitvec: bad range [%d,%d) for length %d", lo, hi, n))
	}
	v := New(n)
	// Fill whole words where possible.
	for i := lo; i < hi; {
		w := i >> 6
		bit := uint(i) & 63
		if bit == 0 && i+64 <= hi {
			v.words[w] = ^uint64(0)
			i += 64
			continue
		}
		v.words[w] |= 1 << bit
		i++
	}
	return v
}

// NextSetBit returns the index of the first set bit ≥ from, or -1.
func (v Vector) NextSetBit(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	w := from >> 6
	cur := v.words[w] >> (uint(from) & 63)
	if cur != 0 {
		return from + bits.TrailingZeros64(cur)
	}
	for w++; w < len(v.words); w++ {
		if v.words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(v.words[w])
		}
	}
	return -1
}

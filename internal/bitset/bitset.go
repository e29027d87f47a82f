// Package bitset provides the word-parallel palette kernels shared by every
// color-set consumer in the repository: the trial runner's per-node
// known-colors sets, the verifier's color statistics, the greedy
// baselines' first-free picks and the deterministic pipeline's reduction
// scratch.
//
// The paper's algorithms spend their hot loops answering two queries — "is
// color c used nearby?" and "what is a free color?". Both are one-word
// operations on a dense bitset: membership is a single AND, free-color
// selection is a word scan driven by bits.TrailingZeros64. The package
// offers two shapes:
//
//   - Row: a raw []uint64 view, for flat per-node regions carved out of one
//     backing slice (the trial kernel stores n palette rows contiguously);
//   - Fixed: a sized bitset with O(1) epoch-free ops and a reusable backing
//     array (Resize reuses capacity), mirroring graph.MarkSet's pooled-reuse
//     contract for callers that clear between uses.
//
// Per-neighborhood scratch that is reset millions of times per pass uses
// generation marks instead (graph.MarkSet, the verifier's per-color marks):
// a bitset's lazy per-word zeroing costs more than one mark per member.
//
// Both are deliberately bounds-unchecked beyond the slice's own checks:
// callers index within the capacity they allocated, exactly like the flat
// arrays these kernels replace.
package bitset

import "math/bits"

const wordBits = 64

// WordsFor returns the number of uint64 words needed to hold nbits bits.
func WordsFor(nbits int) int {
	if nbits <= 0 {
		return 0
	}
	return (nbits + wordBits - 1) / wordBits
}

// Row is a bitset view over a raw word slice. It carries no length of its
// own: the caller decides which bit range [0, limit) is meaningful and must
// only Set bits inside it (Count and NthSet trust that contract, which is
// what makes them plain popcounts).
type Row []uint64

// Set sets bit i.
func (r Row) Set(i int) { r[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (r Row) Clear(i int) { r[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set — the one-AND membership query.
func (r Row) Test(i int) bool { return r[i>>6]&(1<<(uint(i)&63)) != 0 }

// ClearAll zeroes every word.
func (r Row) ClearAll() {
	for i := range r {
		r[i] = 0
	}
}

// Count returns the number of set bits.
func (r Row) Count() int {
	n := 0
	for _, w := range r {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndNotCount returns the number of bits set in r but not in other (which
// must be at least as long) — popcount(r &^ other) without materializing it.
func (r Row) AndNotCount(other Row) int {
	n := 0
	for i, w := range r {
		n += bits.OnesCount64(w &^ other[i])
	}
	return n
}

// FirstZero returns the smallest clear bit below limit, or -1 if bits
// [0, limit) are all set. One TrailingZeros64 per full word.
func (r Row) FirstZero(limit int) int {
	return r.NextZero(0, limit)
}

// NextZero returns the smallest clear bit in [from, limit), or -1.
func (r Row) NextZero(from, limit int) int {
	if from < 0 {
		from = 0
	}
	if from >= limit {
		return -1
	}
	wi := from >> 6
	// First (possibly partial) word: mask off bits below from.
	w := ^r[wi] & (^uint64(0) << (uint(from) & 63))
	for {
		if w != 0 {
			i := wi*wordBits + bits.TrailingZeros64(w)
			if i >= limit {
				return -1
			}
			return i
		}
		wi++
		if wi*wordBits >= limit {
			return -1
		}
		w = ^r[wi]
	}
}

// NthZero returns the k-th (0-based, in ascending order) clear bit below
// limit, or -1 if fewer than k+1 bits are clear. It skips whole words by
// popcount and selects inside the final word bit by bit — the free-color
// sampling primitive ("draw the idx-th color not known used").
func (r Row) NthZero(k, limit int) int {
	if k < 0 || limit <= 0 {
		return -1
	}
	full := limit >> 6
	for wi := 0; wi < full; wi++ {
		w := ^r[wi]
		z := bits.OnesCount64(w)
		if k >= z {
			k -= z
			continue
		}
		return wi*wordBits + selectBit(w, k)
	}
	if rem := limit & 63; rem != 0 {
		w := ^r[full] & (1<<uint(rem) - 1)
		if k < bits.OnesCount64(w) {
			return full*wordBits + selectBit(w, k)
		}
	}
	return -1
}

// NthSet returns the k-th (0-based, ascending) set bit, or -1 if fewer than
// k+1 bits are set — the "pick the i-th smallest remaining color" primitive.
func (r Row) NthSet(k int) int {
	if k < 0 {
		return -1
	}
	for wi, w := range r {
		z := bits.OnesCount64(w)
		if k >= z {
			k -= z
			continue
		}
		return wi*wordBits + selectBit(w, k)
	}
	return -1
}

// selectBit returns the position of the k-th (0-based) set bit of w; the
// caller guarantees w has more than k set bits.
func selectBit(w uint64, k int) int {
	for ; k > 0; k-- {
		w &= w - 1
	}
	return bits.TrailingZeros64(w)
}

// Fixed is a sized bitset over [0, Len()). Resize reuses the backing array,
// so a pooled Fixed serves workloads of varying palette sizes without
// reallocating — the same reuse contract as graph.MarkSet.
type Fixed struct {
	bits Row
	n    int
}

// NewFixed returns a bitset for bits 0..n-1, all clear.
func NewFixed(n int) *Fixed {
	f := &Fixed{}
	f.Resize(n)
	return f
}

// Resize re-dimensions the set to n bits and clears it, reusing the backing
// array when it is large enough.
func (f *Fixed) Resize(n int) {
	if n < 0 {
		n = 0
	}
	w := WordsFor(n)
	if cap(f.bits) < w {
		f.bits = make(Row, w)
	} else {
		f.bits = f.bits[:w]
		f.bits.ClearAll()
	}
	f.n = n
}

// Row exposes the underlying words (for bulk operations such as building a
// complement row).
func (f *Fixed) Row() Row { return f.bits }

// Set sets bit i (i must be below the size given to Resize).
func (f *Fixed) Set(i int) { f.bits.Set(i) }

// Clear clears bit i.
func (f *Fixed) Clear(i int) { f.bits.Clear(i) }

// Test reports whether bit i is set.
func (f *Fixed) Test(i int) bool { return f.bits.Test(i) }

// ClearAll clears every bit.
func (f *Fixed) ClearAll() { f.bits.ClearAll() }

// FirstZero returns the smallest clear bit, or -1 if the set is full.
func (f *Fixed) FirstZero() int { return f.bits.FirstZero(f.n) }

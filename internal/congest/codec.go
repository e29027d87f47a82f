package congest

import "math/bits"

// This file holds the shared payload-word codec helpers. A Message carries
// its payload as one fixed-width uint64 (see Message); protocols encode
// their structured payloads into that word with small per-protocol codecs
// (e.g. internal/trial's propose/answer codecs). The helpers here keep those
// codecs honest about the model: a CONGEST message is O(log n) bits, so a
// value that needs more than ⌈log₂ n⌉ bits must declare a correspondingly
// larger word count.

// WordBits returns the modeled word width for an n-node network: ⌈log₂ n⌉
// bits, floored at 1. This is the "O(log n) bits" of the model with constant
// exactly 1; IDs from the standard n³ space therefore occupy 3 words' worth
// of bits but are conventionally still charged as one O(log n)-bit word.
func WordBits(n int) int {
	if n < 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// WordsFor returns the number of ⌈log₂ n⌉-bit words needed to carry value —
// the honest Words declaration for a message whose payload word holds value.
// A zero value still occupies one word.
func WordsFor(value uint64, n int) int {
	need := bits.Len64(value)
	if need == 0 {
		need = 1
	}
	w := WordBits(n)
	return (need + w - 1) / w
}

package trial

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestColorCodecRoundTrip(t *testing.T) {
	for _, c := range []int{0, 1, 7, 1 << 20, 1<<31 - 1} {
		if got := DecodeColor(EncodeColor(c)); got != c {
			t.Errorf("color round trip of %d = %d", c, got)
		}
	}
}

func TestAnswerCodecRoundTrip(t *testing.T) {
	f := func(color uint32, conflict bool) bool {
		c, k := DecodeAnswer(EncodeAnswer(int(color), conflict))
		return c == int(color) && k == conflict
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The trial protocol charges one word per message (the seed-path accounting:
// a color is one O(log n)-bit quantity, the answer's conflict bit rides
// along). The honest word count of every encodable payload must stay within
// the constant-factor budget the paper's O(log n)-bit messages allow: a
// color from a Δ²+1 ≤ n²+1 palette occupies at most 2 ⌈log₂ n⌉-bit words,
// an answer at most 3 (two words of color plus the shifted-in bit).
func TestCodecWordsAccounting(t *testing.T) {
	// wordsFor is the number of ⌈log₂ n⌉-bit words that carry value (n ≥ 2;
	// a zero value still occupies one word).
	wordsFor := func(value uint64, n int) int {
		w := bits.Len(uint(n - 1))
		return (max(bits.Len64(value), 1) + w - 1) / w
	}
	for _, n := range []int{16, 100, 1024, 1 << 16} {
		delta := n - 1 // densest possible topology
		maxColor := delta*delta + 1 - 1
		if got := wordsFor(EncodeColor(maxColor), n); got > 2 {
			t.Errorf("n=%d: propose payload needs %d words, want <= 2", n, got)
		}
		if got := wordsFor(EncodeAnswer(maxColor, true), n); got > 3 {
			t.Errorf("n=%d: answer payload needs %d words, want <= 3", n, got)
		}
	}
}

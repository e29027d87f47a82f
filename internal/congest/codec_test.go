package congest

import "testing"

func TestWordBits(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := WordBits(c.n); got != c.want {
			t.Errorf("WordBits(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// WordsFor is the honesty check for payload codecs: a value that does not
// fit one ⌈log₂ n⌉-bit word must declare more words.
func TestWordsForAccounting(t *testing.T) {
	cases := []struct {
		value uint64
		n     int
		want  int
	}{
		{0, 1024, 1},               // zero still occupies a word
		{1023, 1024, 1},            // exactly fits 10 bits
		{1024, 1024, 2},            // 11 bits > one 10-bit word
		{1 << 20, 1024, 3},         // 21 bits → 3 words
		{uint64(1) << 63, 1024, 7}, // 64 bits → ⌈64/10⌉
		{5, 2, 3},                  // tiny network: 1-bit words
	}
	for _, c := range cases {
		if got := WordsFor(c.value, c.n); got != c.want {
			t.Errorf("WordsFor(%d, n=%d) = %d, want %d", c.value, c.n, got, c.want)
		}
	}
	// A UID from the standard n³ space fits in 3 words, for any n.
	for _, n := range []int{4, 100, 1024, 1 << 20} {
		uid := uint64(n)*uint64(n)*uint64(n) - 1
		if got := WordsFor(uid, n); got > 3 {
			t.Errorf("n=%d: UID %d needs %d words, want <= 3", n, uid, got)
		}
	}
}

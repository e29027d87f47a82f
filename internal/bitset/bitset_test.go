package bitset

import (
	"math/rand"
	"sort"
	"testing"
)

func TestWordsFor(t *testing.T) {
	cases := map[int]int{-1: 0, 0: 0, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for nbits, want := range cases {
		if got := WordsFor(nbits); got != want {
			t.Errorf("WordsFor(%d) = %d, want %d", nbits, got, want)
		}
	}
}

// boundaryPalettes are the palette sizes straddling word boundaries that the
// word-masked scans must get exactly right.
var boundaryPalettes = []int{1, 2, 63, 64, 65, 127, 128, 129, 200}

func TestFirstZeroNextZeroWordBoundaries(t *testing.T) {
	for _, n := range boundaryPalettes {
		f := NewFixed(n)
		if got := f.FirstZero(); got != 0 {
			t.Errorf("n=%d empty: FirstZero = %d, want 0", n, got)
		}
		// Fill ascending; after setting [0, k) the first zero is k, and the
		// full set reports -1 (including the all-full-words cases 64/128).
		for k := 0; k < n; k++ {
			f.Set(k)
			want := k + 1
			if want == n {
				want = -1
			}
			if got := f.FirstZero(); got != want {
				t.Fatalf("n=%d after filling [0,%d]: FirstZero = %d, want %d", n, k, got, want)
			}
		}
		if got := f.Row().NextZero(0, f.n); got != -1 {
			t.Errorf("n=%d full: NextZero(0) = %d, want -1", n, got)
		}
		// Punch one hole at every position and re-find it from every origin.
		for hole := 0; hole < n; hole++ {
			f.Clear(hole)
			for from := 0; from <= hole; from++ {
				if got := f.Row().NextZero(from, f.n); got != hole {
					t.Fatalf("n=%d hole=%d: NextZero(%d) = %d", n, hole, from, got)
				}
			}
			if got := f.Row().NextZero(hole+1, f.n); got != -1 {
				t.Fatalf("n=%d hole=%d: NextZero past the hole = %d, want -1", n, hole, got)
			}
			f.Set(hole)
		}
	}
}

func TestNextZeroRangeEdges(t *testing.T) {
	f := NewFixed(64)
	if got := f.Row().NextZero(-3, f.n); got != 0 {
		t.Errorf("negative from should clamp to 0, got %d", got)
	}
	if got := f.Row().NextZero(64, f.n); got != -1 {
		t.Errorf("from == limit must be -1, got %d", got)
	}
	if got := (Row{}).FirstZero(0); got != -1 {
		t.Errorf("empty limit must be -1, got %d", got)
	}
}

func TestNthZeroNthSetWordBoundaries(t *testing.T) {
	for _, n := range boundaryPalettes {
		f := NewFixed(n)
		// Set every third bit; zeros and ones interleave across word edges.
		var ones, zeros []int
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				f.Set(i)
				ones = append(ones, i)
			} else {
				zeros = append(zeros, i)
			}
		}
		for k, want := range zeros {
			if got := f.Row().NthZero(k, f.n); got != want {
				t.Fatalf("n=%d: NthZero(%d) = %d, want %d", n, k, got, want)
			}
		}
		if got := f.Row().NthZero(len(zeros), f.n); got != -1 {
			t.Errorf("n=%d: NthZero past the end = %d, want -1", n, got)
		}
		for k, want := range ones {
			if got := f.Row().NthSet(k); got != want {
				t.Fatalf("n=%d: NthSet(%d) = %d, want %d", n, k, got, want)
			}
		}
		if got := f.Row().NthSet(len(ones)); got != -1 {
			t.Errorf("n=%d: NthSet past the end = %d, want -1", n, got)
		}
		if got := f.Row().NthZero(-1, f.n); got != -1 {
			t.Errorf("negative k must be -1, got %d", got)
		}
		if got := f.Row().NthSet(-1); got != -1 {
			t.Errorf("negative k must be -1, got %d", got)
		}
	}
}

func TestNthZeroAllFullWords(t *testing.T) {
	// All-full leading words: the scan must skip them by popcount, not get
	// stuck, and the selection must land in the final partial word.
	f := NewFixed(130)
	for i := 0; i < 128; i++ {
		f.Set(i)
	}
	if got := f.Row().NthZero(0, f.n); got != 128 {
		t.Errorf("NthZero(0) = %d, want 128", got)
	}
	if got := f.Row().NthZero(1, f.n); got != 129 {
		t.Errorf("NthZero(1) = %d, want 129", got)
	}
	if got := f.Row().NthZero(2, f.n); got != -1 {
		t.Errorf("NthZero(2) = %d, want -1", got)
	}
}

func TestRowUnionAndNotCount(t *testing.T) {
	a, b := NewFixed(130), NewFixed(130)
	for _, i := range []int{0, 63, 64, 100, 129} {
		a.Set(i)
	}
	for _, i := range []int{63, 100} {
		b.Set(i)
	}
	if got := a.Row().AndNotCount(b.Row()); got != 3 {
		t.Errorf("AndNotCount = %d, want 3 (bits 0, 64, 129)", got)
	}
	// |a ∪ b| = |b| + |a \ b|.
	if got := b.Row().Count() + a.Row().AndNotCount(b.Row()); got != 5 {
		t.Errorf("union size = %d, want 5", got)
	}
}

func TestFixedResizeReusesAndClears(t *testing.T) {
	f := NewFixed(128)
	f.Set(5)
	f.Set(127)
	f.Resize(70) // shrink within capacity: must clear stale bits
	if f.n != 70 {
		t.Fatalf("Len = %d, want 70", f.n)
	}
	if f.Row().Count() != 0 {
		t.Errorf("resized set must be clear, count = %d", f.Row().Count())
	}
	f.Set(69)
	f.Resize(500) // grow beyond capacity
	if f.Row().Count() != 0 || f.n != 500 {
		t.Errorf("grown set must be clear: count=%d len=%d", f.Row().Count(), f.n)
	}
}

// TestPropertyRowMatchesMapOracle drives a Row and a map-of-ints oracle
// through the same random op sequence — Set, Clear, Test, Count, FirstZero,
// NextZero, NthZero, NthSet — and demands identical answers, across palette
// sizes straddling word boundaries. This is the kernel-level half of the
// oracle suite; the algorithm-level half is the registry golden test in
// internal/alg.
func TestPropertyRowMatchesMapOracle(t *testing.T) {
	for _, n := range []int{63, 64, 65, 129, 200} {
		rng := rand.New(rand.NewSource(int64(n) * 7919))
		row := make(Row, WordsFor(n))
		oracle := map[int]bool{}
		sortedSet := func() []int {
			out := make([]int, 0, len(oracle))
			for k := range oracle {
				out = append(out, k)
			}
			sort.Ints(out)
			return out
		}
		sortedClear := func() []int {
			out := make([]int, 0, n)
			for i := 0; i < n; i++ {
				if !oracle[i] {
					out = append(out, i)
				}
			}
			return out
		}
		for step := 0; step < 4000; step++ {
			i := rng.Intn(n)
			switch rng.Intn(6) {
			case 0:
				row.Set(i)
				oracle[i] = true
			case 1:
				row.Clear(i)
				delete(oracle, i)
			case 2:
				if got, want := row.Test(i), oracle[i]; got != want {
					t.Fatalf("n=%d step=%d: Test(%d) = %v, want %v", n, step, i, got, want)
				}
			case 3:
				if got, want := row.Count(), len(oracle); got != want {
					t.Fatalf("n=%d step=%d: Count = %d, want %d", n, step, got, want)
				}
			case 4:
				zeros := sortedClear()
				want := -1
				k := 0
				if len(zeros) > 0 {
					k = rng.Intn(len(zeros) + 1)
					if k < len(zeros) {
						want = zeros[k]
					}
				}
				if got := row.NthZero(k, n); got != want {
					t.Fatalf("n=%d step=%d: NthZero(%d) = %d, want %d", n, step, k, got, want)
				}
				from := rng.Intn(n)
				want = -1
				for _, z := range zeros {
					if z >= from {
						want = z
						break
					}
				}
				if got := row.NextZero(from, n); got != want {
					t.Fatalf("n=%d step=%d: NextZero(%d) = %d, want %d", n, step, from, got, want)
				}
			case 5:
				ones := sortedSet()
				want := -1
				k := 0
				if len(ones) > 0 {
					k = rng.Intn(len(ones) + 1)
					if k < len(ones) {
						want = ones[k]
					}
				}
				if got := row.NthSet(k); got != want {
					t.Fatalf("n=%d step=%d: NthSet(%d) = %d, want %d", n, step, k, got, want)
				}
			}
		}
	}
}

// BenchmarkFirstFreePick compares the two free-color selection primitives at
// a Δ²-scale palette: the word scan this package provides for the greedy and
// trial kernels.
func BenchmarkFirstFreePick(b *testing.B) {
	const palette = 1024
	f := NewFixed(palette)
	for i := 0; i < palette-1; i++ {
		f.Set(i) // worst case: only the last color is free
	}
	b.Run("FirstZero", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if f.FirstZero() != palette-1 {
				b.Fatal("wrong pick")
			}
		}
	})
	b.Run("NthZero", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if f.Row().NthZero(0, f.n) != palette-1 {
				b.Fatal("wrong pick")
			}
		}
	})
}

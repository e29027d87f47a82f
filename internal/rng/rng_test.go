package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should produce identical streams")
		}
	}
	c := New(43)
	d := New(42)
	same := true
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should produce different streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	s1 := Split(7, 0)
	s2 := Split(7, 1)
	collisions := 0
	for i := 0; i < 1000; i++ {
		if s1.Uint64() == s2.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Errorf("split streams collided %d times in 1000 draws", collisions)
	}
	// Split must itself be deterministic.
	a, b := Split(7, 5), Split(7, 5)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split with identical arguments should be deterministic")
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	s.Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	expected := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 0.08*expected {
			t.Errorf("value %d drawn %d times, expected ~%.0f", v, c, expected)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	var sum float64
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; mean < 0.48 || mean > 0.52 {
		t.Errorf("mean of Float64 draws = %.4f, want ≈0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(3)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) should be false")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) should be true")
	}
	hits := 0
	const draws = 40000
	for i := 0; i < draws; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("Bernoulli(0.25) frequency %.4f, want ≈0.25", frac)
	}
}

func TestBoolBalance(t *testing.T) {
	s := New(11)
	trues := 0
	const draws = 40000
	for i := 0; i < draws; i++ {
		if s.Bool() {
			trues++
		}
	}
	frac := float64(trues) / draws
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("Bool() frequency %.4f, want ≈0.5", frac)
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		if s.Int63() < 0 {
			t.Fatal("Int63 returned a negative value")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		p := s.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	s := New(8)
	vals := []int{1, 1, 2, 3, 5, 8, 13}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	after := 0
	for _, v := range vals {
		after += v
	}
	if sum != after {
		t.Error("Shuffle changed the multiset of values")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	_ = s.Uint64()
	_ = s.Float64()
}

package coloring

import (
	"testing"
	"testing/quick"
)

func TestNewAllUncolored(t *testing.T) {
	c := New(5)
	if len(c) != 5 {
		t.Fatalf("len = %d, want 5", len(c))
	}
	for i, col := range c {
		if col != Uncolored {
			t.Errorf("node %d initialized to %d, want Uncolored", i, col)
		}
	}
	if c.Complete() {
		t.Error("fresh coloring should not be complete")
	}
	if c.NumColored() != 0 {
		t.Error("fresh coloring should have 0 colored nodes")
	}
	if c.MaxColor() != -1 {
		t.Error("MaxColor of empty coloring should be -1")
	}
}

func TestSetGetClone(t *testing.T) {
	c := New(4)
	c[2] = 7
	if !c.IsColored(2) || c[2] != 7 {
		t.Error("index write/read mismatch")
	}
	if c.IsColored(1) {
		t.Error("node 1 should be uncolored")
	}
	cl := c.Clone()
	cl[1] = 3
	if c.IsColored(1) {
		t.Error("Clone should not alias the original")
	}
}

func TestCountsAndCompleteness(t *testing.T) {
	c := New(4)
	c[0] = 1
	c[1] = 1
	c[2] = 5
	if c.NumColored() != 3 {
		t.Errorf("NumColored = %d, want 3", c.NumColored())
	}
	if c.NumColorsUsed() != 2 {
		t.Errorf("NumColorsUsed = %d, want 2", c.NumColorsUsed())
	}
	if c.MaxColor() != 5 {
		t.Errorf("MaxColor = %d, want 5", c.MaxColor())
	}
	if c.Complete() {
		t.Error("coloring with an uncolored node should not be complete")
	}
	c[3] = 0
	if !c.Complete() {
		t.Error("fully assigned coloring should be complete")
	}
	if c.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestPaletteBasics(t *testing.T) {
	p := NewPalette(5)
	if p.Size() != 5 || p.NumAvailable() != 5 {
		t.Fatalf("fresh palette: size=%d avail=%d", p.Size(), p.NumAvailable())
	}
	p.MarkUsed(2)
	p.MarkUsed(2) // idempotent
	p.MarkUsed(4)
	p.MarkUsed(-1) // ignored
	p.MarkUsed(99) // ignored
	if p.NumAvailable() != 3 {
		t.Errorf("NumAvailable = %d, want 3", p.NumAvailable())
	}
	if p.IsAvailable(2) || !p.IsAvailable(0) || p.IsAvailable(9) {
		t.Error("IsAvailable gave wrong answers")
	}
	want := []int{0, 1, 3}
	got := p.Available()
	if len(got) != len(want) {
		t.Fatalf("Available = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Available[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	buf := make([]int, 0, 8)
	appended := p.AppendAvailable(buf)
	if len(appended) != len(want) || &appended[0] != &buf[0:1][0] {
		t.Errorf("AppendAvailable should fill the supplied buffer in place, got %v", appended)
	}
	for i := range want {
		if appended[i] != want[i] {
			t.Errorf("AppendAvailable[%d] = %d, want %d", i, appended[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = p.AppendAvailable(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendAvailable with capacity allocated %.1f times per run", allocs)
	}
	if p.NthAvailable(0) != 0 || p.NthAvailable(1) != 1 || p.NthAvailable(2) != 3 {
		t.Error("NthAvailable gave wrong colors")
	}
	if p.NthAvailable(3) != -1 || p.NthAvailable(-1) != -1 {
		t.Error("NthAvailable out of range should return -1")
	}
}

func TestPaletteNegativeSize(t *testing.T) {
	p := NewPalette(-3)
	if p.Size() != 0 || p.NumAvailable() != 0 {
		t.Error("negative size should clamp to empty palette")
	}
}

func TestPropertyPaletteCounts(t *testing.T) {
	// Marking any subset of colors used leaves Size - |subset| available, and
	// NthAvailable enumerates exactly the complement in increasing order.
	f := func(marks []uint8) bool {
		const size = 40
		p := NewPalette(size)
		used := make(map[int]bool)
		for _, m := range marks {
			c := int(m) % size
			p.MarkUsed(c)
			used[c] = true
		}
		if p.NumAvailable() != size-len(used) {
			return false
		}
		idx := 0
		for c := 0; c < size; c++ {
			if !used[c] {
				if p.NthAvailable(idx) != c {
					return false
				}
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

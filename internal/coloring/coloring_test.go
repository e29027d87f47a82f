package coloring

import "testing"

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

package harness

import (
	"bytes"
	"os"
	"testing"
)

// render returns the table bytes with the wall clock zeroed (the only
// scheduling-dependent field).
func renderStable(t *testing.T, table *Table) []byte {
	t.Helper()
	table.Elapsed = 0
	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenTable reads experiment id's quick table (Quick, Seed 1,
// Repetitions 2, wall clock zeroed) from testdata.
func goldenTable(t *testing.T, id string) []byte {
	t.Helper()
	want, err := os.ReadFile("testdata/" + id + "_quick_seed1_reps2.golden")
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSweepMatchesPreRefactorGoldens pins every E1–E10 experiment's
// sequential table to its golden testdata/<ID>_quick_seed1_reps2.golden byte
// for byte (E1/E3's were captured from the hand-written loops the sweep
// engine replaced, the rest from the tree before the engine axis and the
// Welford fold were removed), so no refactor can move a table unnoticed.
// Volatile experiments (E11's wall-clock and RSS columns) cannot be compared
// byte-wise and have their own smoke test.
func TestSweepMatchesPreRefactorGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick sweeps")
	}
	for _, e := range All() {
		e := e
		if e.Volatile {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			seq, err := e.Run(Config{Quick: true, Seed: 1, Repetitions: 2, Jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderStable(t, seq), goldenTable(t, e.ID); !bytes.Equal(got, want) {
				t.Errorf("jobs=1 table differs from its golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestAllExperimentsJobsInvariant asserts that every experiment's table is
// byte-identical for a sequential and a saturated grid (the order-preserving
// fold argument of DESIGN.md §8). It compares the jobs=8 table with the
// golden that TestSweepMatchesPreRefactorGoldens pins the jobs=1 table to,
// so each grid is swept once per shape.
func TestAllExperimentsJobsInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick sweeps")
	}
	for _, e := range All() {
		e := e
		if e.Volatile {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			par, err := e.Run(Config{Quick: true, Seed: 1, Repetitions: 2, Jobs: 8})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderStable(t, par), goldenTable(t, e.ID); !bytes.Equal(got, want) {
				t.Errorf("jobs=8 table differs from the jobs=1 golden:\n--- jobs=8 ---\n%s\n--- jobs=1 ---\n%s", got, want)
			}
		})
	}
}

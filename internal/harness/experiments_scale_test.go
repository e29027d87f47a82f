package harness

import (
	"maps"
	"runtime"
	"strconv"
	"testing"
)

// TestE11Smoke runs the scale experiment's short-mode pipeline (n = 50k,
// both workload families × both algorithms) and checks the deterministic
// columns: the smoke keeps the million-node path from rotting without
// paying million-node cost in CI.
func TestE11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-node sweeps skipped in -short mode (CI runs this via its own step)")
	}
	table, err := runE11(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("quick E11 should have 2 points × (greedy + relaxed×2 worker counts) = 6 rows, got %d", len(table.Rows))
	}
	col := func(name string) int {
		for i, c := range table.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	nCol, colorsCol, paletteCol, workersCol := col("n"), col("colors used"), col("palette"), col("workers")
	workerRows := map[string]int{}
	for _, row := range table.Rows {
		workerRows[row[workersCol]]++
		n, err := strconv.Atoi(row[nCol])
		if err != nil || n != 50_000 {
			t.Errorf("row %v: n = %q, want 50000", row, row[nCol])
		}
		colors, err := strconv.Atoi(row[colorsCol])
		if err != nil || colors <= 0 {
			t.Errorf("row %v: colors used = %q, want > 0", row, row[colorsCol])
		}
		palette, err := strconv.Atoi(row[paletteCol])
		if err != nil || colors > palette {
			t.Errorf("row %v: colors %d exceed the advertised palette %q", row, colors, row[paletteCol])
		}
	}
	// Both worker counts must appear: the relaxed rows run the worker axis,
	// so the GOMAXPROCS-sized team is on E11's measured path even in the
	// smoke (on one core it degenerates to the inline engine).
	want := map[string]int{"1": 4}
	want[strconv.Itoa(runtime.GOMAXPROCS(0))] += 2
	if !maps.Equal(workerRows, want) {
		t.Errorf("workers column mix = %v, want %v", workerRows, want)
	}
	// The deterministic columns must not depend on the run: regenerate and
	// compare everything except the volatile wall-clock/throughput/RSS.
	again, err := runE11(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	volatile := map[int]bool{col("wall s"): true, col("colors/s"): true, col("peak RSS MiB"): true, col("B/node"): true}
	for ri := range table.Rows {
		for ci := range table.Columns {
			if volatile[ci] {
				continue
			}
			if table.Rows[ri][ci] != again.Rows[ri][ci] {
				t.Errorf("row %d column %q diverged between runs: %q vs %q",
					ri, table.Columns[ci], table.Rows[ri][ci], again.Rows[ri][ci])
			}
		}
	}
}

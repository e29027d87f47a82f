package alg_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"d2color/internal/alg"
	_ "d2color/internal/core" // links every algorithm into the registry
	"d2color/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite the palette-kernel golden file")

// goldenRecord pins one run's observable outcome: a hash of the full
// coloring, the palette bound, the distinct-color count and the complete
// Metrics struct. Any representation change that alters a single color or a
// single metric field flips the record.
type goldenRecord struct {
	ColoringHash string `json:"coloringHash"`
	PaletteSize  int    `json:"paletteSize"`
	ColorsUsed   int    `json:"colorsUsed"`
	Metrics      string `json:"metrics"`
}

// goldenFamilies is one representative per generator family the repository
// sweeps over (random sparse, geometric, structured grid, dense blocks,
// high-degree hub, regular).
func goldenFamilies() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPWithAverageDegree(96, 8, 3)},
		{"unitdisk", graph.UnitDisk(90, 0.16, 5)},
		{"grid", graph.Grid(9, 9)},
		{"cliquechain", graph.CliqueChain(4, 5, 0)},
		{"star", graph.Star(24)},
		{"regular", graph.RandomRegular(80, 6, 7)},
	}
}

func hashColoring(c []int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, col := range c {
		v := uint64(int64(col))
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRegistryMatchesPaletteKernelGolden pins every registered algorithm ×
// generator family × seed to a golden captured before the word-parallel
// palette kernels landed (sorted-prefix / per-neighborhood-map era). The
// bitset kernels are a faster representation of the same color sets, so
// colorings AND Metrics must stay byte-identical; regenerate with -update
// only for a change that intentionally alters algorithm behavior.
func TestRegistryMatchesPaletteKernelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry three times per family")
	}
	seeds := []uint64{1, 7, 42}
	got := map[string]goldenRecord{}
	for _, fam := range goldenFamilies() {
		for _, a := range alg.All() {
			for _, seed := range seeds {
				key := fmt.Sprintf("%s/%s/seed=%d", a.Name(), fam.name, seed)
				res, err := a.Run(fam.g, alg.Engine{}, seed)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got[key] = goldenRecord{
					ColoringHash: hashColoring(res.Coloring),
					PaletteSize:  res.PaletteSize,
					ColorsUsed:   res.Coloring.NumColorsUsed(),
					Metrics:      fmt.Sprintf("%+v", res.Metrics),
				}
			}
		}
	}

	path := filepath.Join("testdata", "palette_kernel.golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to capture): %v", err)
	}
	want := map[string]goldenRecord{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d records, run produced %d (new algorithm registered? regenerate with -update)", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from this run", key)
			continue
		}
		if g != w {
			t.Errorf("%s diverged from the pre-bitset path:\n got %+v\nwant %+v", key, g, w)
		}
	}
}

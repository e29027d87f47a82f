// Package alg is the unified algorithm registry: every coloring (and
// coloring-shaped) algorithm in the repository is exposed behind one small
// interface and registered by name, so the sweep engine, the experiment
// harness and the CLIs dispatch through a single table instead of re-wrapping
// each package's entry point.
//
// The algorithm packages self-register their default instances from init()
// (see the register.go file in randd2, detd2, polylogd2, baseline and mis);
// importing any of them — directly or transitively, e.g. via internal/core —
// populates the registry. Parameterized instances (custom constants, a
// non-default ε, ...) are built with the packages' Algorithm constructors and
// used unregistered, typically as one axis value of a sweep.Spec.
package alg

import (
	"fmt"
	"sort"
	"sync"

	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/graph"
	"d2color/internal/trial"
)

// Determinism classifies an algorithm's output as a function of the seed.
type Determinism int

const (
	// Deterministic algorithms produce the same result on every run with the
	// same input (the seed at most permutes internal identifiers). The sweep
	// engine runs them once per cell regardless of the repetition count.
	Deterministic Determinism = iota
	// Randomized algorithms produce seed-dependent results; measurements are
	// averaged over repetitions with distinct seeds.
	Randomized
)

func (d Determinism) String() string {
	if d == Deterministic {
		return "deterministic"
	}
	return "randomized"
}

// Engine is the run context of one algorithm run besides the seed: the
// CONGEST execution substrate and the output form. The algorithm packages'
// entry points take it as an argument, so their Options carry only the
// algorithms' own parameters. Every worker count is byte-deterministic with
// every other, so the choice changes wall-clock time, never results.
type Engine struct {
	// Workers is the simulator's worker count: ≤ 1 runs rounds inline on
	// the caller's goroutine, k > 1 on a persistent team of k goroutines.
	Workers int
	// Kernel, when non-nil, returns a reusable trial kernel built for the
	// graph being solved. Algorithms that run random-trial phases on that
	// graph (the randd2 family, the relaxed and Johansson baselines) run
	// them on it instead of building a throwaway kernel, so repeated runs on
	// one topology — the sweep engine's seed repetitions — share the
	// kernel's network and flat per-node state; a kernel built for another
	// graph is an error. The kernel's own worker count then applies. The
	// provider is expected to memoize; algorithms that do not run trial
	// phases never call it, so no kernel is built for them.
	Kernel func() *trial.Runner
	// PackedColors asks for the coloring bit-packed (Result.Packed instead
	// of Result.Coloring): ⌈log₂(palette+1)⌉ bits/node, the representation
	// the 10⁷-node scale runs keep resident. The colors are byte-identical
	// either way. Algorithms that have no packed path ignore the flag and
	// fill Coloring.
	PackedColors bool
}

// Result is the algorithm-independent outcome of one run.
type Result struct {
	// Coloring assigns a color to every node (for MIS-shaped algorithms,
	// membership encoded as colors 1/0). Nil when the run produced a packed
	// coloring instead; use ColorsUsed/ColorAt for backing-agnostic reads.
	Coloring coloring.Coloring
	// Packed is the bit-packed assignment, set instead of Coloring when the
	// engine requested Engine.PackedColors and the adapter supports it.
	Packed *coloring.Packed
	// PaletteSize is the palette bound the run guarantees.
	PaletteSize int
	// Metrics is the CONGEST cost of the run.
	Metrics congest.Metrics
	// Details carries the package-specific result (e.g. *randd2.Result) for
	// callers that need per-stage observability. May be nil.
	Details any
}

// ColorsUsed returns the distinct-color count of whichever backing the run
// produced.
func (r *Result) ColorsUsed() int {
	if r.Packed != nil {
		return r.Packed.NumColorsUsed()
	}
	return r.Coloring.NumColorsUsed()
}

// ColorAt returns node v's color from whichever backing the run produced.
func (r *Result) ColorAt(v graph.NodeID) int {
	if r.Packed != nil {
		return r.Packed.Get(v)
	}
	return r.Coloring.Get(v)
}

// Algorithm is one runnable algorithm instance. Implementations must be safe
// for concurrent Run calls on distinct graphs; a single instance is shared by
// every cell of a sweep grid.
type Algorithm interface {
	// Name identifies the instance (registry key for registered instances).
	Name() string
	// Determinism reports whether distinct seeds yield distinct results.
	Determinism() Determinism
	// PaletteBound returns the palette size the algorithm guarantees on g
	// (e.g. Δ²+1), without running it.
	PaletteBound(g *graph.Graph) int
	// Run executes the algorithm on g with the given engine and seed.
	Run(g *graph.Graph, eng Engine, seed uint64) (Result, error)
}

// IsD2Coloring reports whether a's results are proper distance-2 colorings
// of the input graph (the default assumption). Coloring-shaped algorithms
// whose output merely reuses the Coloring representation — MIS membership,
// red/blue splits — opt out via the optional interface
// { D2Coloring() bool }, and verifiers must not apply the distance-2
// conflict check to them.
func IsD2Coloring(a Algorithm) bool {
	if s, ok := a.(interface{ D2Coloring() bool }); ok {
		return s.D2Coloring()
	}
	return true
}

// Func adapts plain closures to the Algorithm interface; it is the glue used
// by the package register files and by inline experiment-specific algorithms.
type Func struct {
	AlgName string
	Class   Determinism
	Palette func(g *graph.Graph) int
	RunFunc func(g *graph.Graph, eng Engine, seed uint64) (Result, error)
	// NotD2 marks coloring-shaped results (MIS membership, splits) that are
	// not distance-2 colorings; see IsD2Coloring.
	NotD2 bool
}

func (f Func) Name() string             { return f.AlgName }
func (f Func) Determinism() Determinism { return f.Class }
func (f Func) D2Coloring() bool         { return !f.NotD2 }

func (f Func) PaletteBound(g *graph.Graph) int {
	if f.Palette == nil {
		return 0
	}
	return f.Palette(g)
}

func (f Func) Run(g *graph.Graph, eng Engine, seed uint64) (Result, error) {
	return f.RunFunc(g, eng, seed)
}

// D2Palette is the Δ²+1 palette bound shared by the exact algorithms.
func D2Palette(g *graph.Graph) int {
	d := g.MaxDegree()
	return d*d + 1
}

var (
	mu       sync.RWMutex
	registry = map[string]Algorithm{}
)

// Register adds a to the registry. It panics on an empty name or a duplicate
// registration: both indicate a wiring bug in a package's init().
func Register(a Algorithm) {
	name := a.Name()
	if name == "" {
		panic("alg: Register with empty name")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("alg: duplicate registration of %q", name))
	}
	registry[name] = a
}

// Get returns the registered algorithm with the given name.
func Get(name string) (Algorithm, bool) {
	mu.RLock()
	defer mu.RUnlock()
	a, ok := registry[name]
	return a, ok
}

// MustGet returns the registered algorithm or panics; for wiring that is
// statically known to be present (the harness specs over the default set).
func MustGet(name string) Algorithm {
	a, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("alg: %q is not registered (missing import of its package?)", name))
	}
	return a
}

// Names returns the registered algorithm names in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns the registered algorithms in name order.
func All() []Algorithm {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Algorithm, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

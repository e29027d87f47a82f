package randd2

import (
	"fmt"
	"math"

	"d2color/internal/alg"
	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/detd2"
	"d2color/internal/graph"
	"d2color/internal/trial"
	"d2color/internal/verify"
)

// Variant selects which final phase the algorithm uses.
type Variant int

// Algorithm variants.
const (
	// VariantImproved is Improved-d2-Color (Section 2.6): LearnPalette +
	// FinishColoring, the O(log Δ · log n) algorithm of Theorem 1.1.
	VariantImproved Variant = iota + 1
	// VariantBasic is d2-Color with the final Reduce(c2·log n, 1) step, the
	// O(log³ n) algorithm of Corollary 2.1.
	VariantBasic
)

func (v Variant) String() string {
	switch v {
	case VariantBasic:
		return "basic"
	case VariantImproved:
		return "improved"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Options configures a run.
type Options struct {
	// Variant selects the final phase; zero value means VariantImproved.
	Variant Variant
	// Params are the algorithm constants; the zero value means Default().
	Params *Params
	// DisableDeterministicFallback forces the randomized machinery even when
	// Δ² < C2·log n (step 0 of d2-Color would normally defer to Theorem 1.2).
	// Used by tests and by experiments that want the randomized path on small
	// graphs.
	DisableDeterministicFallback bool
}

// Result is the outcome of a run.
type Result struct {
	Coloring    coloring.Coloring
	PaletteSize int
	Metrics     congest.Metrics
	Variant     Variant

	// UsedDeterministicFallback is set when step 0 dispatched to Theorem 1.2.
	UsedDeterministicFallback bool

	// ActiveRounds is the total round count at the moment the coloring first
	// became complete (the schedule keeps running after that, as the
	// distributed algorithm has no global termination detection).
	ActiveRounds int

	// Per-stage observability.
	SimilarityRounds int
	InitialPhases    int
	InitialColored   int
	ReduceStats      []ReduceStats
	PaletteStats     PaletteStats
	FinishStats      FinishStats
	FallbackPhases   int
}

// Run executes the randomized d2-coloring algorithm on g; the seed drives all
// randomness. The trial phases run on eng.Kernel's reusable kernel when the
// engine offers one (it must be built for g and is not closed), otherwise on
// a throwaway kernel with eng.Workers workers, which also sizes the
// deterministic fallback's engine. Results are byte-identical for every
// worker count.
func Run(g *graph.Graph, opts Options, eng alg.Engine, seed uint64) (Result, error) {
	if opts.Variant == 0 {
		opts.Variant = VariantImproved
	}
	params := Default()
	if opts.Params != nil {
		params = *opts.Params
	}
	if err := params.Validate(); err != nil {
		return Result{}, err
	}

	n := g.NumNodes()
	delta := g.MaxDegree()
	if n == 0 {
		return Result{Coloring: coloring.New(0), PaletteSize: 1, Variant: opts.Variant}, nil
	}

	// Step 0: for low-degree graphs use the deterministic algorithm
	// (Theorem 1.2), exactly as Algorithm d2-Color does.
	if float64(delta*delta) < params.C2*log2(n) && !opts.DisableDeterministicFallback {
		det, err := detd2.Run(g, detd2.Options{}, eng, seed)
		if err != nil {
			return Result{}, fmt.Errorf("randd2: deterministic fallback: %w", err)
		}
		return Result{
			Coloring:                  det.Coloring,
			PaletteSize:               det.PaletteSize,
			Metrics:                   det.Metrics,
			Variant:                   opts.Variant,
			UsedDeterministicFallback: true,
			ActiveRounds:              det.Metrics.TotalRounds(),
		}, nil
	}

	var tk *trial.Runner
	if eng.Kernel == nil {
		tk = trial.NewRunner(g, false, eng.Workers)
		defer tk.Close() // owned kernel: injected ones are closed by their owner
	} else if tk = eng.Kernel(); tk.Graph() != g {
		return Result{}, fmt.Errorf("randd2: injected trial kernel was built for a different graph")
	}
	r := newRunner(g, params, seed, tk)
	res := Result{Variant: opts.Variant, PaletteSize: r.palette}

	// Step 1: form the similarity graphs H and Ĥ (Section 2.3).
	r.sim = buildSimilarity(g, r.d2, delta, params, seed)
	r.charge(r.sim.rounds)
	res.SimilarityRounds = r.sim.rounds

	// Step 2: c0·log n phases of whole-palette random colour trials, simulated
	// message-by-message on the CONGEST simulator.
	initialPhases := int(math.Ceil(params.C0 * log2(n)))
	tr, err := r.tk.Run(trial.Config{
		PaletteSize: r.palette,
		Scope:       trial.ScopeDistance2,
		MaxPhases:   initialPhases,
		Seed:        seed ^ 0x1234,
	})
	if err != nil {
		return Result{}, fmt.Errorf("randd2: initial phase: %w", err)
	}
	// Fold the trials' rounds in before adopting their coloring: adopting a
	// complete coloring records ActiveRounds, which must include them.
	r.addMetrics(tr.Metrics)
	r.adoptColoring(tr.Coloring)
	res.InitialPhases = tr.Phases
	res.InitialColored = tr.Coloring.NumColored()

	// Step 3: the main loop — halve the leeway threshold until it reaches the
	// concentration floor C2·log n.
	floor := params.C2 * log2(n)
	for tau := params.C1 * float64(delta*delta); tau > floor; tau /= 2 {
		stats := r.reduce(2*tau, tau)
		res.ReduceStats = append(res.ReduceStats, stats)
	}

	// Step 4: the final phase.
	switch opts.Variant {
	case VariantBasic:
		stats := r.reduce(floor, 1)
		res.ReduceStats = append(res.ReduceStats, stats)
		// Outside the asymptotic regime the scaled constants may leave a few
		// live nodes; the whole-palette trial loop finishes them off (each
		// live node always has at least one free colour in a Δ²+1 palette).
		// The extra phases are reported so experiments can see them.
		fallback, err := r.fallbackTrials(params)
		if err != nil {
			return Result{}, err
		}
		res.FallbackPhases = fallback
	case VariantImproved:
		remaining, pstats := r.learnPalette()
		res.PaletteStats = pstats
		fstats, err := r.finishColoring(remaining)
		if err != nil {
			return Result{}, err
		}
		res.FinishStats = fstats
	default:
		return Result{}, fmt.Errorf("randd2: unknown variant %d", opts.Variant)
	}

	res.Coloring = r.col
	res.Metrics = r.metrics
	res.ActiveRounds = r.activeRounds
	if res.ActiveRounds < 0 {
		res.ActiveRounds = r.metrics.TotalRounds()
	}
	if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
		return Result{}, fmt.Errorf("randd2: produced invalid coloring: %w", rep.Error())
	}
	return res, nil
}

// fallbackTrials runs whole-palette trial phases until every node is colored.
// Each phase costs 3 rounds (the trial primitive).
func (r *runner) fallbackTrials(params Params) (int, error) {
	maxPhases := params.MaxFallbackPhases
	if maxPhases <= 0 {
		maxPhases = 256*int(math.Ceil(log2(r.n))) + 1024
	}
	phases := 0
	for ; phases < maxPhases && r.liveLeft > 0; phases++ {
		r.beginTries()
		for _, v := range r.live {
			r.setTry(v, r.rand[v].Intn(r.palette))
		}
		r.resolveTries()
		r.charge(3)
	}
	if r.liveLeft > 0 {
		return phases, fmt.Errorf("randd2: fallback trials left %d live nodes after %d phases", r.liveLeft, phases)
	}
	return phases, nil
}

// Command bench runs the repository's pinned benchmark set with -benchmem
// and writes a JSON snapshot mapping each benchmark to its ns/op, B/op and
// allocs/op. The snapshots are the perf trajectory of the project: the
// committed BENCH_<n>.json files are written with -out, and the CI bench
// step writes BENCH_ci.json on every push, so regressions
// in the hot kernels (trial phases, verification, greedy picks, the
// deterministic pipeline and its color reduction, the message plane, the
// distance-2 stream, the sweep grid, the incremental repair kernel and the
// cancellation latency of an in-flight kernel run) are visible as diffs
// between snapshots rather than anecdotes.
//
// Since ISSUE 7 the snapshot also carries the memory probe: peak resident
// set and bytes per node for the greedy and relaxed algorithms on the
// standard n = 10⁶ sparse workload — the figure of merit of the memory diet,
// made first-class so its trajectory diffs like the nanoseconds do.
//
// Run from the repository root:
//
//	go run ./cmd/bench                      # 1-iteration smoke, BENCH_local.json
//	go run ./cmd/bench -benchtime 5x        # steadier numbers
//	go run ./cmd/bench -memprobe 0          # skip the n=1e6 memory probe
//	go run ./cmd/bench -out snapshots/B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"d2color/internal/harness"
)

// pinnedSet is the benchmark selection the snapshot tracks: one entry per
// hot subsystem, chosen so the set stays fast enough for CI yet covers every
// kernel the perf work of PRs 1–5 optimized.
var pinnedSet = []struct {
	pkg   string
	bench string
}{
	{"./internal/trial", "BenchmarkTrialPhase$|BenchmarkCancelLatency$"},
	{"./internal/verify", "BenchmarkVerify$|BenchmarkVerifyWarmed|BenchmarkVerifyOutOfRange|BenchmarkRecheckD2$"},
	{"./internal/baseline", "BenchmarkGreedyD2$|BenchmarkJohanssonD1$"},
	{"./internal/detcolor", "BenchmarkReduceColors$"},
	{"./internal/detd2", "BenchmarkDeterministicD2$"},
	{"./internal/netdecomp", "BenchmarkCompute$"},
	{"./internal/randd2", "BenchmarkBuildSimilarity"},
	{"./internal/bitset", "BenchmarkFirstFreePick"},
	{"./internal/congest", "BenchmarkDeliver|BenchmarkPayloadRound"},
	{"./internal/graph", "BenchmarkDist2View$|BenchmarkDist2InducedSubgraph|BenchmarkBuilderSortDedupe$"},
	{"./internal/sweep", "BenchmarkSweepGrid"},
	{"./internal/repair", "BenchmarkRepairCorrupt|BenchmarkChurnEpoch"},
	{"./internal/serve", "BenchmarkWarmVerifyRequest$|BenchmarkWarmVerifyRequestUnchanged$|BenchmarkWarmRecolorRequest$|BenchmarkWarmCorruptRecolorRequest$|BenchmarkServeColorQueryBatched$|BenchmarkServeColorQueryUnbatched$"},
}

// measurement is one benchmark's snapshot entry.
type measurement struct {
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// snapshot is the file layout of BENCH_<pr>.json. Cores records the
// machine's CPU count: the multi-worker engine benchmarks embed their worker
// count in the benchmark name, and a snapshot from a 1-core runner is not
// comparable to one from an 8-core runner for those entries. Memory holds
// the n = 10⁶ peak-RSS probe (omitted with -memprobe 0); MemoryReliable
// records whether the platform allowed resetting VmHWM between probes —
// when false the readings are monotone and unfit for cross-snapshot
// comparison.
type snapshot struct {
	Benchtime      string                 `json:"benchtime"`
	Cores          int                    `json:"cores"`
	Benchmarks     map[string]measurement `json:"benchmarks"`
	Memory         []harness.MemoryProbe  `json:"memory,omitempty"`
	MemoryReliable bool                   `json:"memoryReliable,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		out       = fs.String("out", "BENCH_local.json", "snapshot file to write")
		benchtime = fs.String("benchtime", "1x", "-benchtime passed to go test (1x = smoke, 5x+ = steadier)")
		memprobe  = fs.Int("memprobe", 1_000_000, "node count for the peak-RSS memory probe (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	snap := snapshot{Benchtime: *benchtime, Cores: runtime.NumCPU(), Benchmarks: map[string]measurement{}}
	for _, entry := range pinnedSet {
		fmt.Fprintf(stdout, "== %s -bench %s\n", entry.pkg, entry.bench)
		cmd := exec.Command("go", "test", entry.pkg, "-run", "^$",
			"-bench", entry.bench, "-benchmem", "-benchtime", *benchtime)
		cmd.Stderr = os.Stderr
		output, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", entry.pkg, err)
		}
		stdout.Write(output)
		prefix := strings.TrimPrefix(entry.pkg, "./internal/")
		for name, m := range parseBenchOutput(string(output)) {
			snap.Benchmarks[prefix+"/"+name] = m
		}
	}

	if *memprobe > 0 {
		fmt.Fprintf(stdout, "== memory probe (gnp avg deg 8, n=%d)\n", *memprobe)
		probes, reliable, err := harness.RunMemoryProbe(*memprobe, 1, []string{"greedy", "relaxed"})
		if err != nil {
			return err
		}
		snap.Memory, snap.MemoryReliable = probes, reliable
		for _, p := range probes {
			fmt.Fprintf(stdout, "%-10s peak %.0f MiB  %.0f B/node  (reliable=%v)\n",
				p.Algorithm, p.PeakRSSMiB, p.BytesPerNode, reliable)
		}
	}

	data, err := json.MarshalIndent(orderedSnapshot(snap), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
	return nil
}

// gomaxprocsSuffix strips the trailing -<GOMAXPROCS> go test appends to
// benchmark names, so snapshots compare across machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts name → measurement from `go test -bench` output.
// A result line is the benchmark name, the iteration count, then value/unit
// pairs (ns/op always; B/op and allocs/op with -benchmem; custom
// ReportMetric units are ignored).
func parseBenchOutput(output string) map[string]measurement {
	results := map[string]measurement{}
	for _, line := range strings.Split(output, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		var m measurement
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			value, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = value
				ok = true
			case "B/op":
				m.BytesPerOp = value
			case "allocs/op":
				m.AllocsPerOp = value
			}
		}
		if ok {
			results[name] = m
		}
	}
	return results
}

// orderedSnapshot re-marshals the map through a sorted intermediate so the
// snapshot file is stable under diff.
func orderedSnapshot(s snapshot) any {
	names := make([]string, 0, len(s.Benchmarks))
	for name := range s.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	type namedMeasurement struct {
		Name string `json:"name"`
		measurement
	}
	out := struct {
		Benchtime      string                `json:"benchtime"`
		Cores          int                   `json:"cores"`
		Memory         []harness.MemoryProbe `json:"memory,omitempty"`
		MemoryReliable bool                  `json:"memoryReliable,omitempty"`
		Benchmarks     []namedMeasurement    `json:"benchmarks"`
	}{Benchtime: s.Benchtime, Cores: s.Cores, Memory: s.Memory, MemoryReliable: s.MemoryReliable}
	for _, name := range names {
		out.Benchmarks = append(out.Benchmarks, namedMeasurement{Name: name, measurement: s.Benchmarks[name]})
	}
	return out
}

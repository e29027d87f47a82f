package serve

import (
	"os"
	"slices"
	"testing"
)

// gateTailFactor bounds the batched warm tail: p99 must stay under this
// many color-request medians. A color request runs a full kernel pass,
// which the certified verify did not remove, so the bound scales with the
// work a queued request can wait behind instead of with the O(1) median
// verify of a 90%-verify mix. On a 2-vCPU container the least disturbed
// of five runs reads p99 ≈ 2 color medians, while a 20 ms worker stall on
// 1% of requests (≈ 6 color medians) reads ≈ 8.
const gateTailFactor = 5

// TestServeGate is the serving-plane performance gate. It runs a small
// query-heavy load as interleaved batched and unbatched twins with
// identical request schedules and logs the percentiles; the assertions
// are enforced only under D2_SERVE_GATE=1 (the CI serve-gate job), mirroring
// the repair gate: timing claims don't fail local runs on loaded machines.
//
//   - Tail: over the batched runs, the smallest p99 / color-request p50
//     stays under gateTailFactor. A code regression shows in every run;
//     a noisy neighbour's stall seldom does, so the least disturbed run
//     is the one to judge.
//   - Throughput: the median batched req/s is at least the median
//     unbatched req/s, over five interleaved runs per twin when enforced
//     (one otherwise), since a single run's spread exceeds their gap.
func TestServeGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a load mix twice")
	}
	enforce := os.Getenv("D2_SERVE_GATE") == "1"
	runs := 1
	if enforce {
		runs = 5
	}

	spec := LoadSpec{
		Mix:            "gate/query",
		Sessions:       2,
		Family:         "ba",
		N:              1500,
		Deg:            3,
		Algorithm:      "relaxed",
		Requests:       1200,
		Concurrency:    8,
		VerifyFraction: 0.9,
		ColorSeeds:     1,
		Seed:           17,
	}
	un := spec
	un.Unbatched = true
	var tails, batchedRPS, unbatchedRPS []float64
	for i := 0; i < runs; i++ {
		batched, err := RunLoad(spec)
		if err != nil {
			t.Fatal(err)
		}
		unbatched, err := RunLoad(un)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("run %d batched:   p50=%v p99=%v color p50=%v %.0f req/s (mean batch %.1f, %d coalesced)",
			i, batched.P50, batched.P99, batched.ColorP50, batched.RequestsPerSec, batched.MeanBatch, batched.Coalesced)
		t.Logf("run %d unbatched: p50=%v p99=%v color p50=%v %.0f req/s",
			i, unbatched.P50, unbatched.P99, unbatched.ColorP50, unbatched.RequestsPerSec)
		if batched.Errors != 0 || unbatched.Errors != 0 {
			t.Fatalf("load errors: batched %d, unbatched %d", batched.Errors, unbatched.Errors)
		}
		if batched.ColorP50 <= 0 {
			t.Fatal("the batched mix issued no color request")
		}
		tails = append(tails, float64(batched.P99)/float64(batched.ColorP50))
		t.Logf("run %d: batched p99 = %.2f× color p50", i, tails[i])
		batchedRPS = append(batchedRPS, batched.RequestsPerSec)
		unbatchedRPS = append(unbatchedRPS, unbatched.RequestsPerSec)
	}

	check := func(ok bool, format string, args ...any) {
		if ok {
			return
		}
		if enforce {
			t.Errorf(format, args...)
		} else {
			t.Logf("(not enforced, set D2_SERVE_GATE=1) "+format, args...)
		}
	}
	tail, b, u := slices.Min(tails), median(batchedRPS), median(unbatchedRPS)
	t.Logf("over %d runs: least p99 = %.2f× color p50; median batched %.0f req/s, unbatched %.0f req/s", runs, tail, b, u)
	check(tail < gateTailFactor,
		"warm tail too heavy: batched p99 is at least %.2f× the color-request p50, want < %d×", tail, gateTailFactor)
	check(b >= u, "median batched throughput %.0f req/s below median unbatched %.0f req/s", b, u)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

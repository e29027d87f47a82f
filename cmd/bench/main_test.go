package main

import (
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `
goos: linux
BenchmarkTrialPhase/workers=1-8         	      20	  11880627 ns/op	       0 B/op	       0 allocs/op
BenchmarkVerify/n=10000-8   	      30	    326619 ns/op	       4 B/op	       0 allocs/op
BenchmarkE1RandomizedD2-8    	       1	 123456789 ns/op	       42.0 table-rows	 2488 B/op	       9 allocs/op
PASS
`
	got := parseBenchOutput(out)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	tp, ok := got["BenchmarkTrialPhase/workers=1"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if tp.NsPerOp != 11880627 || tp.AllocsPerOp != 0 {
		t.Errorf("trial phase = %+v", tp)
	}
	v := got["BenchmarkVerify/n=10000"]
	if v.NsPerOp != 326619 || v.BytesPerOp != 4 {
		t.Errorf("verify = %+v", v)
	}
	// Custom ReportMetric columns must not derail B/op and allocs/op.
	e1 := got["BenchmarkE1RandomizedD2"]
	if e1.BytesPerOp != 2488 || e1.AllocsPerOp != 9 {
		t.Errorf("custom-metric line = %+v", e1)
	}
}

func TestParseBenchOutputIgnoresNonResultLines(t *testing.T) {
	got := parseBenchOutput("ok  \td2color/internal/trial\t0.3s\nBenchmarkBroken abc ns/op\n")
	if len(got) != 0 {
		t.Fatalf("want no results, got %v", got)
	}
}

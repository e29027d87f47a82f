package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRunTextOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "gnp", "-n", "120", "-p", "0.05", "-algo", "rand-improved", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"algorithm:", "rand-improved", "valid:", "true", "rounds:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "cliquechain", "-n", "3", "-m", "5", "-algo", "deterministic", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var out output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if !out.Valid {
		t.Error("JSON output should report a valid coloring")
	}
	if out.Algorithm != "deterministic" {
		t.Errorf("algorithm = %q", out.Algorithm)
	}
	if out.Nodes != 15 {
		t.Errorf("nodes = %d, want 15", out.Nodes)
	}
	if out.PaletteSize == 0 || out.ColorsUsed == 0 {
		t.Error("palette / colors should be positive")
	}
}

func TestRunAllAlgorithmsViaCLI(t *testing.T) {
	names := strings.Split(algoNames(), ", ")
	if len(names) != 8 {
		t.Fatalf("-algo values = %v, want auto plus the seven distance-2 algorithms", names)
	}
	for _, algo := range names {
		var buf bytes.Buffer
		err := run([]string{"-graph", "gnp", "-n", "80", "-p", "0.06", "-algo", algo, "-seed", "2", "-json"}, &buf)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		var out output
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("%s: invalid JSON: %v", algo, err)
		}
		if !out.Valid {
			t.Errorf("%s: invalid coloring", algo)
		}
		if algo != "auto" && out.Algorithm != algo {
			t.Errorf("%s: algorithm = %q", algo, out.Algorithm)
		}
	}
}

// TestAutoIsRandImproved pins the default -algo: auto runs rand-improved and
// reports that name.
func TestAutoIsRandImproved(t *testing.T) {
	var auto, direct bytes.Buffer
	if err := run([]string{"-graph", "star", "-n", "12", "-json"}, &auto); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", "star", "-n", "12", "-algo", "rand-improved", "-json"}, &direct); err != nil {
		t.Fatal(err)
	}
	if auto.String() != direct.String() {
		t.Errorf("auto output differs from rand-improved:\n%s\nvs\n%s", auto.String(), direct.String())
	}
}

// TestRunRejectsNonColoringAlgorithms checks that registered coloring-shaped
// entries (MIS membership) are refused rather than reported as invalid
// distance-2 colorings, and that the error lists the valid choices.
func TestRunRejectsNonColoringAlgorithms(t *testing.T) {
	for _, algo := range []string{"mis", "mis-d2", "nonsense"} {
		var buf bytes.Buffer
		err := run([]string{"-algo", algo, "-graph", "path", "-n", "5"}, &buf)
		if err == nil {
			t.Errorf("%s: should be rejected", algo)
			continue
		}
		if !strings.Contains(err.Error(), algoNames()) {
			t.Errorf("%s: error %q does not list %q", algo, err, algoNames())
		}
		if buf.Len() != 0 {
			t.Errorf("%s: printed output before rejecting: %q", algo, buf.String())
		}
	}
}

func TestRunFromEdgeListFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g.txt"
	if err := os.WriteFile(path, []byte("# nodes: 4\n0 1\n1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-input", path, "-algo", "greedy", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var out output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Nodes != 4 || out.Edges != 3 || !out.Valid {
		t.Errorf("unexpected output: %+v", out)
	}
	if err := run([]string{"-input", dir + "/missing.txt"}, &buf); err == nil {
		t.Error("missing input file should error")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "nonsense"}, &buf); err == nil {
		t.Error("unknown generator should error")
	}
	if err := run([]string{"-algo", "nonsense", "-graph", "path", "-n", "5"}, &buf); err == nil {
		t.Error("unknown algorithm should error")
	}
	if err := run([]string{"-bogusflag"}, &buf); err == nil {
		t.Error("unknown flag should error")
	}
}

package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllExperimentsDefined(t *testing.T) {
	exps := All()
	if len(exps) != 14 {
		t.Fatalf("expected 14 experiments, got %d", len(exps))
	}
	seen := make(map[string]bool)
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestEveryExperimentRunsInQuickMode(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes a few seconds")
	}
	cfg := Config{Quick: true, Seed: 1, Repetitions: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Errorf("%s: row width %d != %d columns", e.ID, len(row), len(table.Columns))
				}
			}
			var buf bytes.Buffer
			if err := table.Render(&buf); err != nil {
				t.Fatalf("%s: render: %v", e.ID, err)
			}
			if !strings.Contains(buf.String(), e.ID) {
				t.Errorf("%s: rendering does not mention the experiment ID", e.ID)
			}
			var csvBuf bytes.Buffer
			if err := table.WriteCSV(&csvBuf); err != nil {
				t.Fatalf("%s: csv: %v", e.ID, err)
			}
		})
	}
}

func TestTableHelpers(t *testing.T) {
	table := &Table{ID: "T", Title: "test", Columns: []string{"a", "b"}}
	table.AddRow("1")           // short row padded
	table.AddRow("1", "2", "3") // long row truncated
	table.AddNote("hello %d", 42)
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	if table.Rows[0][1] != "" || table.Rows[1][1] != "2" {
		t.Errorf("row padding/truncation wrong: %v", table.Rows)
	}
	if len(table.Notes) != 1 || !strings.Contains(table.Notes[0], "42") {
		t.Errorf("notes wrong: %v", table.Notes)
	}
	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hello 42") || !strings.Contains(out, "test") {
		t.Errorf("rendering missing content:\n%s", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if itoa(5) != "5" || ftoa(1.5) != "1.50" || btoa(true) != "yes" || btoa(false) != "no" {
		t.Error("format helpers wrong")
	}
	if log2f(1) != 1 || log2f(8) != 3 {
		t.Error("log2f wrong")
	}
	if maxI(2, 3) != 3 || maxI(4, 1) != 4 {
		t.Error("maxI wrong")
	}
}

func TestConfigReps(t *testing.T) {
	if (Config{}).reps() != 3 {
		t.Error("default reps should be 3")
	}
	if (Config{Quick: true}).reps() != 1 {
		t.Error("quick reps should be 1")
	}
	if (Config{Repetitions: 7}).reps() != 7 {
		t.Error("explicit reps should win")
	}
}

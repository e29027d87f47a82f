package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleTable() *Table {
	t := &Table{
		ID:      "T1",
		Title:   "sample",
		Claim:   "a claim",
		Columns: []string{"n", "rounds"},
		Elapsed: 1500 * time.Millisecond,
	}
	t.AddRow("128", "12.00")
	t.AddRow("256", "14.00")
	t.AddNote("a note")
	return t
}

func TestRenderReportsWallClock(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "note: wall-clock 1.5s") {
		t.Errorf("rendering should report the wall clock:\n%s", buf.String())
	}
	zero := sampleTable()
	zero.Elapsed = 0
	buf.Reset()
	if err := zero.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "wall-clock") {
		t.Errorf("zero elapsed should render no wall-clock note:\n%s", buf.String())
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	if err := (JSONLSink{W: &buf}).Emit(sampleTable()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// 1 table + 2 rows + 1 note + 1 done.
	if len(lines) != 5 {
		t.Fatalf("expected 5 records, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[1], `"cells":{"n":"128","rounds":"12.00"}`) {
		t.Errorf("row record should key cells by column: %s", lines[1])
	}
	if !strings.Contains(lines[4], `"elapsedMs":1500`) {
		t.Errorf("done record should carry the wall clock: %s", lines[4])
	}
}

func TestRunRejectsUnknownIDs(t *testing.T) {
	err := Run(Config{Quick: true}, []string{"E42"}, TextSink{W: &bytes.Buffer{}})
	if err == nil || !strings.Contains(err.Error(), "E42") {
		t.Fatalf("unknown experiment IDs should error naming the ID, got %v", err)
	}
	for _, e := range All() {
		if !strings.Contains(err.Error(), e.ID) {
			t.Errorf("error should list valid ID %s: %v", e.ID, err)
		}
	}
}

func TestRunDeduplicatesIDs(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(Config{Quick: true, Repetitions: 1, Seed: 1}, []string{"E3", "E3"}, TextSink{W: &buf}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "E3 — "); got != 1 {
		t.Errorf("duplicate -only IDs should run once, table rendered %d times", got)
	}
}

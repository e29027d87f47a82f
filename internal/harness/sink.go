package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Sink consumes finished experiment tables. All sinks are fed from the same
// aggregated records (the Table), so every output format reports identical
// numbers.
type Sink interface {
	Emit(t *Table) error
}

// TextSink renders aligned plain-text tables to W.
type TextSink struct{ W io.Writer }

// Emit implements Sink.
func (s TextSink) Emit(t *Table) error { return t.Render(s.W) }

// CSVDirSink writes one <ID>.csv file per table into Dir (created on first
// use).
type CSVDirSink struct{ Dir string }

// Emit implements Sink.
func (s CSVDirSink) Emit(t *Table) error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(s.Dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// JSONLSink streams tables as JSON lines: one "table" record carrying the
// metadata, one "row" record per table row (cells keyed by column name), one
// "note" record per note, and a closing "done" record with the wall clock.
// The format is append-friendly, so long sweeps can be tailed and
// post-processed with standard line-oriented tooling.
type JSONLSink struct{ W io.Writer }

type jsonlRecord struct {
	Type       string            `json:"type"`
	Experiment string            `json:"experiment"`
	Title      string            `json:"title,omitempty"`
	Claim      string            `json:"claim,omitempty"`
	Columns    []string          `json:"columns,omitempty"`
	Cells      map[string]string `json:"cells,omitempty"`
	Note       string            `json:"note,omitempty"`
	ElapsedMS  float64           `json:"elapsedMs,omitempty"`
}

// Emit implements Sink.
func (s JSONLSink) Emit(t *Table) error {
	enc := json.NewEncoder(s.W)
	if err := enc.Encode(jsonlRecord{Type: "table", Experiment: t.ID, Title: t.Title, Claim: t.Claim, Columns: t.Columns}); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make(map[string]string, len(t.Columns))
		for i, col := range t.Columns {
			if i < len(row) {
				cells[col] = row[i]
			}
		}
		if err := enc.Encode(jsonlRecord{Type: "row", Experiment: t.ID, Cells: cells}); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := enc.Encode(jsonlRecord{Type: "note", Experiment: t.ID, Note: n}); err != nil {
			return err
		}
	}
	return enc.Encode(jsonlRecord{Type: "done", Experiment: t.ID, ElapsedMS: float64(t.Elapsed) / float64(time.Millisecond)})
}

// MultiSink fans each table out to every sink in order.
func MultiSink(sinks ...Sink) Sink { return multiSink(sinks) }

type multiSink []Sink

// Emit implements Sink.
func (m multiSink) Emit(t *Table) error {
	for _, s := range m {
		if err := s.Emit(t); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the selected experiments (nil or empty ids means all) and
// feeds every finished table to the sink. Unknown IDs are an error listing
// the valid ones, so a typo cannot silently run nothing.
func Run(cfg Config, ids []string, sink Sink) error {
	selected := All()
	if len(ids) > 0 {
		byID := make(map[string]Experiment, len(selected))
		valid := make([]string, 0, len(selected))
		for _, e := range selected {
			byID[e.ID] = e
			valid = append(valid, e.ID)
		}
		selected = selected[:0]
		seen := make(map[string]bool, len(ids))
		var unknown []string
		for _, id := range ids {
			if seen[id] {
				continue
			}
			seen[id] = true
			if e, ok := byID[id]; ok {
				selected = append(selected, e)
			} else {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			return fmt.Errorf("harness: unknown experiment ID(s) %v; valid IDs are %v", unknown, valid)
		}
	}
	for _, e := range selected {
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		if err := sink.Emit(table); err != nil {
			return fmt.Errorf("harness: emit %s: %w", e.ID, err)
		}
	}
	return nil
}

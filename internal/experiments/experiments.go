// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 microbenchmarks, §6.1 feature overheads, §6.2 GDPR
// workloads, §6.3 scale) plus the analysis tables (Table 1, Table 2a).
// Each experiment is a pure function returning a Result — the same
// rows/series the paper reports — so the CLI, the benchmark harness and
// tests all share one implementation.
//
// Absolute numbers differ from the paper (the substrate is an in-process
// engine, not the authors' testbed); the shapes the paper argues from are
// asserted in experiments_test.go.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects experiment sizing.
type Scale string

// Scales.
const (
	// Small finishes each experiment in seconds; the default.
	Small Scale = "small"
	// Paper approaches the paper's dataset sizes; minutes per experiment.
	Paper Scale = "paper"
)

// Result is one regenerated artifact: an ID like "F3a" or "T3", the rows
// of the corresponding figure/table, and free-form notes (paper-reported
// values, shape checks).
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner func(scale Scale) (Result, error)

// registry maps experiment IDs to runners; populated in init() by the
// per-figure files.
var registry = map[string]Runner{}

// titles preserves presentation order.
var order []string

func register(id string, fn Runner) {
	registry[id] = fn
	order = append(order, id)
}

// IDs lists the registered experiment IDs in presentation order.
func IDs() []string {
	out := append([]string(nil), order...)
	sort.Slice(out, func(i, j int) bool { return artifactRank(out[i]) < artifactRank(out[j]) })
	return out
}

// artifactRank orders T1, T2a first, then figures numerically (the
// figure number is zero-padded so F10 sorts after F9).
func artifactRank(id string) string {
	switch {
	case strings.HasPrefix(id, "T"):
		return "0" + id
	default:
		rest := id[1:]
		i := 0
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		return fmt.Sprintf("1F%03s%s", rest[:i], rest[i:])
	}
}

// Run executes the experiment with the given ID.
func Run(id string, scale Scale) (Result, error) {
	fn, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return fn(scale)
}

// RunAll executes every experiment in order.
func RunAll(scale Scale) ([]Result, error) {
	var out []Result
	for _, id := range IDs() {
		r, err := Run(id, scale)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v) }

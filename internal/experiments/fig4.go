package experiments

import (
	"fmt"
	"time"

	"repro/internal/ycsb"
)

func init() {
	register("F4a", func(s Scale) (Result, error) { return runFig4("redis", s) })
	register("F4b", func(s Scale) (Result, error) { return runFig4("postgres", s) })
}

// combined is the fully compliant YCSB stack: every §5 feature on.
var combined = ycsb.Features{Encrypt: true, TTL: true, Log: true}

// fig4Features are Figure 4's bar groups, baseline first.
var fig4Features = []struct {
	name string
	f    ycsb.Features
}{
	{"baseline", ycsb.Features{}},
	{"encrypt", ycsb.Features{Encrypt: true}},
	{"ttl", ycsb.Features{TTL: true}},
	{"log", ycsb.Features{Log: true}},
	{"combined", combined},
}

// runFig4 reproduces Figures 4a/4b: YCSB workloads A-F on one engine,
// normalized against the engine's no-security baseline, for each feature
// set. The paper reports Redis dropping to ~20% (5x slowdown) and
// PostgreSQL to ~50-60% (~2x) with all features combined, with logging
// the dominant cost on Redis.
func runFig4(engine string, scale Scale) (Result, error) {
	// Fixed-duration windows: every configuration is measured for the
	// same wall time regardless of its speed, so relative throughput is
	// comparable.
	cfg := ycsb.Config{Records: 5_000, Operations: 50_000_000, MaxTime: 250 * time.Millisecond, Threads: 8, Seed: 1}
	if scale == Paper {
		cfg = ycsb.Config{Records: 200_000, Operations: 500_000_000, MaxTime: 2 * time.Second, Threads: 16, Seed: 1}
	}
	title := "Redis"
	id := "F4a"
	if engine == "postgres" {
		title = "PostgreSQL"
		id = "F4b"
	}
	res := Result{
		ID:     id,
		Title:  fmt.Sprintf("%s YCSB throughput under GDPR features, %% of baseline (Figure %s)", title, id[1:]),
		Header: []string{"Workload", "Baseline ops/s", "Encrypt", "TTL", "Log", "Combined"},
	}
	// tput[featureIdx][letter]
	tput := make([]map[string]float64, len(fig4Features))
	for fi, fs := range fig4Features {
		tput[fi] = map[string]float64{}
		for _, letter := range ycsb.WorkloadLetters() {
			run, err := ycsbLeg(engine, fs.f, letter, cfg)
			if err != nil {
				return res, fmt.Errorf("%s/%s/%s: %w", engine, fs.name, letter, err)
			}
			tput[fi][letter] = run.Throughput()
		}
	}
	for _, letter := range ycsb.WorkloadLetters() {
		base := tput[0][letter]
		row := []string{letter, f0(base)}
		for fi := 1; fi < len(fig4Features); fi++ {
			row = append(row, pct(100*tput[fi][letter]/base))
		}
		res.Rows = append(res.Rows, row)
	}
	if engine == "redis" {
		res.Notes = append(res.Notes,
			"paper: encrypt ~-10%, ttl ~-20%, log ~-70%, combined ~-80% (5x slowdown)")
	} else {
		res.Notes = append(res.Notes,
			"paper: encrypt/ttl ~10-20% drop, log ~30-40% drop, combined ~50-60% of baseline (~2x)")
	}
	return res, nil
}

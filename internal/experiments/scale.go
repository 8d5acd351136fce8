package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ycsb"
)

func init() {
	register("F7a", func(s Scale) (Result, error) { return runScaleYCSB("redis", s) })
	register("F7b", func(s Scale) (Result, error) { return runScaleGDPR("redis", false, s) })
	register("F8a", func(s Scale) (Result, error) { return runScaleYCSB("postgres", s) })
	register("F8b", func(s Scale) (Result, error) { return runScaleGDPR("postgres", true, s) })
}

// runScaleYCSB reproduces Figures 7a/8a: the time a compliant engine
// takes to complete a fixed 10K-operation YCSB workload C as the database
// grows. The paper shows a flat curve — completion time is a function of
// operation count only.
func runScaleYCSB(engine string, scale Scale) (Result, error) {
	sizes := []int{10_000, 50_000, 100_000}
	ops := 10_000
	if scale == Paper {
		sizes = []int{10_000, 100_000, 1_000_000, 10_000_000}
	}
	id := "F7a"
	title := "Redis"
	if engine == "postgres" {
		id = "F8a"
		title = "PostgreSQL"
	}
	res := Result{
		ID:     id,
		Title:  fmt.Sprintf("%s: YCSB-C completion time vs DB size (Figure %s)", title, id[1:]),
		Header: []string{"Total records", "Completion time"},
	}
	for _, n := range sizes {
		run, err := ycsbLeg(engine, combined, "C", ycsb.Config{Records: n, Operations: ops, Threads: 8, Seed: 1})
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", n), run.WallTime().Round(time.Millisecond).String(),
		})
	}
	res.Notes = append(res.Notes,
		"paper: completion time virtually constant across 3 orders of magnitude of DB size")
	return res, nil
}

// runScaleGDPR reproduces Figures 7b/8b: the time a compliant engine
// takes to complete a fixed number of GDPRbench customer-workload
// operations as the volume of personal data grows. The paper shows Redis
// growing linearly with DB size; PostgreSQL with metadata indices grows
// only moderately.
func runScaleGDPR(engine string, indexed bool, scale Scale) (Result, error) {
	sizes := []int{1_000, 2_000, 4_000}
	ops := 400
	if scale == Paper {
		sizes = []int{100_000, 200_000, 300_000, 400_000, 500_000}
		ops = 10_000
	}
	id := "F7b"
	title := "Redis"
	if engine == "postgres" {
		id = "F8b"
		title = "PostgreSQL + metadata indices"
	}
	res := Result{
		ID:     id,
		Title:  fmt.Sprintf("%s: GDPRbench customer completion time vs personal-data volume (Figure %s)", title, id[1:]),
		Header: []string{"Personal records", "Completion time"},
	}
	for _, n := range sizes {
		cfg := core.Config{Records: n, Operations: ops, Threads: 8, Seed: 1}
		wall, err := leg{opts: full(engine, indexed), cfg: cfg}.medianWall(core.Customer)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", n), wall.Round(time.Millisecond).String(),
		})
	}
	if engine == "redis" {
		res.Notes = append(res.Notes,
			"paper: completion time grows linearly with personal-data volume (O(n) metadata scans)")
	} else {
		res.Notes = append(res.Notes,
			"paper: growth is muted thanks to secondary indices, with some index-maintenance overhead at scale")
	}
	return res, nil
}

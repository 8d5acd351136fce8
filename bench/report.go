package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// contract is BENCHMARK.json as this command reads it: the workload and
// metric names it must print, and each end-to-end metric's bound.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// series is one end-to-end metric over the runs of one workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	ScriptSHA256 string             `json:"script_sha256"`
	Seeds        []int64            `json:"seeds"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	EndToEnd     map[string]*series `json:"end_to_end"`
	PerLayer     map[string]metric  `json:"per_layer,omitempty"`
}

// resultFile is one point of the trajectory (bench/results/BENCH_*.json).
type resultFile struct {
	Scale     string                     `json:"scale"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runChild does one run of w in a process of its own, as the acceptance
// driver does, so no run inherits another's heap, resident-set high-water
// mark or registry counts.
func runChild(w *workload, sc scale, seed int64, seconds float64, trace int) (result, runInfo, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, runInfo{}, err
	}
	cmd := osexec.Command(exe, "-workload", w.name, "-scale", sc.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, runInfo{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return result{}, runInfo{}, fmt.Errorf("run printed %d lines, want its info and its result", len(lines))
	}
	var res result
	var info runInfo
	if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
		return result{}, runInfo{}, fmt.Errorf("run info: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, runInfo{}, fmt.Errorf("run result: %w", err)
	}
	return res, info, nil
}

// measure runs every workload runs times end to end (seed, seed+1, ...)
// and, when traced, once more with the decorators in, printing as it goes.
func measure(out io.Writer, sc scale, seed int64, seconds float64, runs int, traced bool) (*resultFile, bool, error) {
	rf := &resultFile{Scale: sc.name, Seconds: seconds, Runs: runs, Workloads: map[string]*workloadResult{}}
	ok := true
	for _, w := range workloads() {
		wr := &workloadResult{EndToEnd: map[string]*series{}}
		rf.Workloads[w.name] = wr
		fmt.Fprintf(out, "\n== %s ==\n%s\n", w.name, w.why)
		for r := 0; r < runs; r++ {
			t0 := time.Now()
			res, info, err := runChild(w, sc, seed+int64(r), seconds, 0)
			if err != nil {
				return nil, false, fmt.Errorf("%s seed %d: %w", w.name, seed+int64(r), err)
			}
			if r == 0 {
				wr.ScriptSHA256 = info.ScriptSHA256
			}
			wr.Seeds = append(wr.Seeds, seed+int64(r))
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for _, m := range endToEnd {
				s := wr.EndToEnd[m.name]
				if s == nil {
					s = &series{Unit: m.unit}
					wr.EndToEnd[m.name] = s
				}
				s.Values = append(s.Values, res.Metrics[m.name].Value)
			}
			fmt.Fprintf(out, "run %d: seed %d  script_sha256 %s  %d ops in %.2fs  attempted %d failed %d  (%.1fs)\n",
				r+1, seed+int64(r), info.ScriptSHA256[:16], info.Ops, info.WallS, res.Attempted, res.Failed, time.Since(t0).Seconds())
			if !res.Correct {
				ok = false
				fmt.Fprintf(out, "  FAILED: %s\n", info.FirstFailure)
			}
		}
		fmt.Fprintf(out, "  %-22s %14s %14s %14s  %s\n", "end-to-end", "median", "q1", "q3", "unit")
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.name]
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			fmt.Fprintf(out, "  %-22s %14.4f %14.4f %14.4f  %s\n", m.name, s.Median, s.Q1, s.Q3, s.Unit)
		}
		fmt.Fprintf(out, "  %-22s %14.6f\n", "fail_share", ratio(float64(wr.Failed), float64(wr.Attempted)))
		if !traced {
			continue
		}
		t0 := time.Now()
		res, info, err := runChild(w, sc, seed, seconds, 1)
		if err != nil {
			return nil, false, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		wr.PerLayer = res.Metrics
		fmt.Fprintf(out, "  traced run: attempted %d failed %d  (%.1fs)  spans in %s\n",
			res.Attempted, res.Failed, time.Since(t0).Seconds(), filepath.Join(spansDir, w.name+".spans.jsonl"))
		if !res.Correct {
			ok = false
			fmt.Fprintf(out, "  FAILED: %s\n", info.FirstFailure)
		}
		for _, m := range perLayer {
			fmt.Fprintf(out, "  %-32s %16.4f  %s\n", m.name, res.Metrics[m.name].Value, m.unit)
		}
	}
	return rf, ok, nil
}

// writeResultFile stores rf at path as indented JSON.
func writeResultFile(path string, rf *resultFile) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report is the command's default mode: everything, printed, and
// optionally written to a result file.
func report(out io.Writer, sc scale, seed int64, seconds float64, runs int, path string) (bool, error) {
	rf, ok, err := measure(out, sc, seed, seconds, runs, true)
	if err != nil || path == "" {
		return ok, err
	}
	return ok, writeResultFile(path, rf)
}

// verdict compares one metric of one workload across two sets of runs.
// worse is how much b's median is worse than a's, as a share of a's.
func verdict(a, b *series, better string, bound float64) (string, float64) {
	if a.Median == 0 {
		return "unresolved", 0
	}
	worse := b.Median/a.Median - 1
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spreadShare(a.Values) > bound || spreadShare(b.Values) > bound:
		// The runs of one side disagree among themselves by more than
		// the bound: the difference between the sides says nothing.
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	case worse < -bound:
		return "improved", worse
	}
	return "unchanged", worse
}

// compareResults prints one row per (workload, end-to-end metric) and
// returns how many rows got each verdict.
func compareResults(out io.Writer, c *contract, a, b *resultFile) map[string]int {
	verdicts := map[string]int{}
	fmt.Fprintf(out, "%-11s %-16s %12s %12s %12s | %12s %12s %12s | %6s %8s  %s\n",
		"workload", "metric", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "bound", "worse", "verdict")
	var names []string
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, m := range c.EndToEnd {
			sa, sb := a.Workloads[name].EndToEnd[m.Name], b.Workloads[name].EndToEnd[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			v, worse := verdict(sa, sb, m.Better, m.Bound)
			verdicts[v]++
			fmt.Fprintf(out, "%-11s %-16s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %5.1f%% %+7.1f%%  %s\n",
				name, m.Name, sa.Q1, sa.Median, sa.Q3, sb.Q1, sb.Median, sb.Q3, m.Bound*100, worse*100, v)
		}
	}
	return verdicts
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(out, c, a, b)["regressed"] > 0, nil
}

// agreeRuns measures the full set twice and holds the two against each
// other: the benchmark agrees with itself when no row is regressed,
// improved or unresolved. With a path, the first set includes the traced
// runs and is written there.
func agreeRuns(out io.Writer, sc scale, seed int64, seconds float64, runs int, path string) (bool, error) {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var sets [2]*resultFile
	for i := range sets {
		fmt.Fprintf(out, "\n#### set %d of 2\n", i+1)
		rf, ok, err := measure(out, sc, seed, seconds, runs, i == 0 && path != "")
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		sets[i] = rf
	}
	if path != "" {
		if err := writeResultFile(path, sets[0]); err != nil {
			return false, err
		}
	}
	fmt.Fprintln(out)
	v := compareResults(out, c, sets[0], sets[1])
	fmt.Fprintf(out, "\n%d unchanged, %d improved, %d regressed, %d unresolved\n", v["unchanged"], v["improved"], v["regressed"], v["unresolved"])
	return v["regressed"]+v["improved"]+v["unresolved"] == 0, nil
}

// Command bench is the repository's performance ledger: four workloads
// over the GDPR store's four stacks, each reporting the end-to-end metrics
// a user of the store sees and, in a separate traced run, what every layer
// contributed. See README.md beside this file.
//
// The acceptance driver runs one workload at a time:
//
//	bench --workload kv-rights --seed 1 --seconds 15 --trace 0
//
// and reads the JSON object on the last line of standard output. Without
// --workload the command runs all four, both ways, and prints a report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one JSON result line (driver mode)")
		seed         = flag.Int64("seed", 1, "seed for the dataset and the op scripts")
		seconds      = flag.Float64("seconds", 15, "how long each run measures")
		trace        = flag.Int("trace", 0, "driver mode: 0 = end-to-end metrics, 1 = per-layer metrics from the traced run")
		scaleName    = flag.String("scale", "full", "full | quick (2k records, 2k ops; the tier-1 test size)")
		runs         = flag.Int("runs", 1, "report mode: end-to-end runs per workload, each with the next seed")
		out          = flag.String("out", "", "report and -agree modes: write medians and quartiles of the (first set of) runs to this JSON file")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		agree        = flag.Bool("agree", false, "run the full set twice (at least 10 runs per workload each) and exit non-zero unless every end-to-end metric agrees within its bound")
	)
	flag.Parse()
	sc := fullScale
	switch *scaleName {
	case "full":
	case "quick":
		sc = quickScale
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scaleName))
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *agree:
		ok, err := agreeRuns(os.Stdout, sc, *seed, *seconds, max(*runs, 10), *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		run := runE2E
		if *trace != 0 {
			run = runTrace
		}
		res, info, err := run(w, sc, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		// The result is the last line; what else the run knows goes before it.
		for _, v := range []any{info, res} {
			line, err := json.Marshal(v)
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(line))
		}
	default:
		ok, err := report(os.Stdout, sc, *seed, *seconds, *runs, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

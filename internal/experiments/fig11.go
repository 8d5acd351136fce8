package experiments

import (
	"time"

	"repro/internal/core"
)

func init() {
	register("F11", runNetworkOverhead)
}

// runNetworkOverhead is the F11 experiment: workload completion time of
// the same GDPR customer workload against an embedded engine and
// against the identical engine served over localhost TCP through the
// network service layer. The paper benchmarks network-attached Redis
// and PostgreSQL and attributes part of GDPR query cost to
// client/server round trips; this experiment isolates that service
// boundary — same engine, same middleware, same workload, the only
// delta being the wire protocol, framing and socket hops.
func runNetworkOverhead(scale Scale) (Result, error) {
	records, ops, threads := 1_200, 300, 4
	if scale == Paper {
		records, ops, threads = 20_000, 5_000, 8
	}
	res := Result{
		ID:     "F11",
		Title:  "Network service overhead: embedded vs localhost TCP (F11)",
		Header: []string{"Engine", "Embedded", "Localhost TCP", "TCP/embedded"},
	}
	for _, engine := range []string{"redis", "postgres"} {
		l := leg{
			opts: core.Options{Engine: engine, Compliance: core.Compliance{AccessControl: true, Strict: true}, DisableDaemons: true},
			cfg:  core.Config{Records: records, Operations: ops, Threads: threads, Seed: 1},
		}
		emb, err := l.run(core.Customer)
		if err != nil {
			return res, err
		}
		l.overTCP = true
		tcp, err := l.run(core.Customer)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, []string{
			engine,
			emb.WallTime().Round(time.Microsecond).String(),
			tcp.WallTime().Round(time.Microsecond).String(),
			f2(float64(tcp.WallTime())/float64(emb.WallTime())) + "x",
		})
	}
	res.Notes = append(res.Notes,
		"paper: the evaluation runs Redis and PostgreSQL network-attached; client/server round trips are part of every GDPR query's cost",
		"the TCP legs run the full stack over internal/server + internal/remote: pipelined wire protocol, role-bound sessions, compliance server-side",
	)
	return res, nil
}

// Command gdprserver serves one of the two engine models (optionally
// hash-sharded) as a network GDPR datastore speaking the pipelined wire
// protocol. Compliance — Figure 1 access control, metadata redaction,
// audit logging, strict validation — runs server-side behind the
// listener, so remote clients cannot bypass it; connections are bound
// to one GDPR role at handshake.
//
// Examples:
//
//	gdprserver -addr 127.0.0.1:7946 -engine redis
//	gdprserver -addr :7946 -engine postgres -index -shards 4 -token s3cret
//	gdprserver -frozenclock      # simulated clock + no daemons, for -validate clients
//
// Point clients at it with:
//
//	gdprbench -connect 127.0.0.1:7946 -records 10000 -ops 2000
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight requests finish
// and their responses flush before the process exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprofaddr: live CPU/heap profiles of the serving hot path

	gdprbench "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7946", "TCP listen address")
		token       = flag.String("token", "", "shared auth token clients must present")
		frozenclock = flag.Bool("frozenclock", false, "run engines on a simulated clock frozen at the epoch with expiry daemons off (required for gdprbench -connect -validate)")
		pprofAddr   = flag.String("pprofaddr", "", "serve net/http/pprof plus /metrics (Prometheus text) and /healthz on this TCP address (e.g. 127.0.0.1:6060)")
		slowlog     = flag.Duration("slowlog-threshold", 0, "record every operation at least this slow in the slowlog, with per-phase latency attribution (e.g. 10ms; 0 = off); forces every-op tracing while armed")
		engineOpts  = core.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("gdprserver: ")
	opts, err := engineOpts()
	if err == nil && *slowlog < 0 {
		err = fmt.Errorf("-slowlog-threshold must be >= 0")
	}
	if err != nil {
		log.Fatal(err)
	}
	obs.Default().SetSlowlogThreshold(*slowlog)
	if *pprofAddr != "" {
		// The introspection surface shares the pprof mux: one debug
		// address serves profiles, metrics and liveness.
		introspect := obs.Default().Handler()
		http.Handle("/metrics", introspect)
		http.Handle("/healthz", introspect)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Print("pprof: ", err)
			}
		}()
	}
	if err := gdprbench.ServeEngine(*addr, *token, opts, *frozenclock); err != nil {
		log.Fatal(err)
	}
}

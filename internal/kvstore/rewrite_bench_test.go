package kvstore

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// BenchmarkGetDuringRewrite quantifies the read pause a rewrite imposes:
// GET latency percentiles while a compaction loop runs continuously, with
// a no-rewrite steady state as the baseline. "background" is Striping 8:
// readers share each stripe's lock with the snapshot copy-out. "exclusive"
// is Striping 0: the same rewrite, but the one stripe's copy-out holds the
// lock exclusively (snapshot IO still runs off-lock), so a GET can wait
// for one in-memory copy of the keyspace. The p99_us metric is the
// acceptance bound — background must stay within 2x of steady state.
func BenchmarkGetDuringRewrite(b *testing.B) {
	const keys = 20_000
	val := strings.Repeat("x", 256)
	for _, mode := range []string{"steady", "background", "exclusive"} {
		b.Run(mode, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "pause.aof")
			striping := 8
			if mode == "exclusive" {
				striping = 0
			}
			s, err := Open(Config{AOFPath: path, Striping: striping})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < keys; i++ {
				if err := s.Set(fmt.Sprintf("key-%05d", i), val); err != nil {
					b.Fatal(err)
				}
			}
			done := make(chan struct{})
			finished := make(chan struct{})
			if mode == "steady" {
				close(finished)
			} else {
				go func() {
					defer close(finished)
					for {
						select {
						case <-done:
							return
						default:
						}
						if err := s.Rewrite(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				s.Get(fmt.Sprintf("key-%05d", i%keys))
				lat[i] = time.Since(t0)
			}
			b.StopTimer()
			close(done)
			<-finished
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p := func(q int) float64 {
				return float64(lat[len(lat)*q/100].Nanoseconds()) / 1e3
			}
			b.ReportMetric(p(50), "p50_us")
			b.ReportMetric(p(99), "p99_us")
			b.ReportMetric(float64(lat[len(lat)-1].Nanoseconds())/1e3, "max_us")
		})
	}
}

package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/gdpr"
	"repro/internal/stats"
)

func init() {
	register("F13", runStreamingExport)
}

// runStreamingExport is the F13 experiment: a subject-access export
// (G 15 / G 20 — read every record of one data subject) running
// concurrently with live point-GET traffic, streamed through the
// chunked cursor path versus materialized in one Select. Three legs on
// the Redis-model engine (striped, metadata-indexed):
//
//	no-export     — GET traffic alone; the latency baseline
//	streamed      — export via ReadDataStream (O(chunk) memory,
//	                stripe locks held per chunk)
//	materialized  — export via ReadData (O(result) memory, the
//	                pre-streaming ablation)
//
// Reported per leg: exports completed, mean export time, the process
// heap high-water delta over the measured window, and the foreground
// GET p99. The streaming claim is that the export stops costing
// O(result) memory and stops head-of-line-blocking point reads.
func runStreamingExport(scale Scale) (Result, error) {
	records, gets, threads := 24_000, 20_000, 4
	if scale == Paper {
		records, gets, threads = 1_000_000, 100_000, 8
	}
	res := Result{
		ID:     "F13",
		Title:  "Streaming subject export vs materialized under live GETs (F13)",
		Header: []string{"Leg", "Exports", "Export mean", "Heap HW delta", "GET p99"},
	}
	// Subject 0 owns 1/8 of the records: its export is 1/8 of the store.
	l := leg{
		opts: core.Options{
			Engine:     "redis",
			Compliance: core.Compliance{AccessControl: true, MetadataIndexing: true},
			KVStripes:  4, DisableDaemons: true,
		},
		cfg: core.Config{Records: records, Threads: threads, Seed: 1, RecordsPerUser: records / 8},
	}
	for _, name := range []string{"no-export", "streamed", "materialized"} {
		err := l.with(func(db core.DB, ds *core.Dataset) error {
			row, err := exportLeg(db, ds, name, gets, threads)
			res.Rows = append(res.Rows, row)
			return err
		})
		if err != nil {
			return res, err
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("one subject owns %d of %d records; export chunk %d", records/8, records, core.DefaultStreamChunk),
		"redis model, 4 kvstore stripes, metadata indexing on; heap high-water sampled from runtime.ReadMemStats (HeapInuse) over the measured window",
		"streamed export holds per-stripe read locks per chunk and buffers O(chunk); materialized holds them per index probe but buffers the full O(result) slice",
	)
	return res, nil
}

// exportLeg runs the foreground GET loop on a store loaded with the F13
// dataset while the requested export mode loops in the background, and
// reports the F13 row.
func exportLeg(db core.DB, ds *core.Dataset, mode string, gets, threads int) ([]string, error) {
	records := ds.Cfg.Records
	// Settle the post-load heap so the high-water delta is attributable
	// to the measured window, then sample HeapInuse until the leg ends.
	runtime.GC()
	base := heapInuse()
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	var heapHW atomic.Int64
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if h := heapInuse(); h > heapHW.Load() {
					heapHW.Store(h)
				}
			}
		}
	}()

	// The background export loop: subject 0 reads their own records,
	// streamed or materialized, over and over until the foreground
	// GET traffic completes.
	subject := ds.CustomerActor(0)
	sel := gdpr.ByUser(ds.UserName(0))
	stopExport := make(chan struct{})
	var exportWG sync.WaitGroup
	var exports atomic.Int64
	var exportNS atomic.Int64
	var exportErr error
	if mode != "no-export" {
		// The GETs start only once the export loop runs, and the loop
		// checks for the stop after each export, so every export leg
		// overlaps the GET traffic with at least one whole export.
		started := make(chan struct{})
		exportWG.Add(1)
		go func() {
			defer exportWG.Done()
			close(started)
			for {
				t0 := time.Now()
				var err error
				if mode == "streamed" {
					err = streamExport(db, subject, sel)
				} else {
					_, err = db.ReadData(subject, sel)
				}
				if err != nil {
					exportErr = err
					return
				}
				exports.Add(1)
				exportNS.Add(time.Since(t0).Nanoseconds())
				select {
				case <-stopExport:
					return
				default:
				}
			}
		}()
		<-started
	}

	// Foreground: closed-loop point GETs, each customer reading one of
	// their own records by key.
	lat := stats.NewHistogram()
	var next atomic.Int64
	var getErr atomic.Value
	var getWG sync.WaitGroup
	for t := 0; t < threads; t++ {
		getWG.Add(1)
		go func(t int) {
			defer getWG.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(gets) {
					return
				}
				k := int(i*7919) % records
				t0 := time.Now()
				_, err := db.ReadData(ds.CustomerActor(ds.OwnerOfKey(k)), gdpr.ByKey(ds.KeyAt(k)))
				lat.Record(time.Since(t0))
				if err != nil {
					getErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(t)
	}
	getWG.Wait()
	close(stopExport)
	exportWG.Wait()
	close(stopSampler)
	samplerWG.Wait()
	if err, _ := getErr.Load().(error); err != nil {
		return nil, fmt.Errorf("experiments: F13 %s GET: %w", mode, err)
	}
	if exportErr != nil {
		return nil, fmt.Errorf("experiments: F13 %s export: %w", mode, exportErr)
	}

	n := exports.Load()
	meanExport := "-"
	if n > 0 {
		meanExport = (time.Duration(exportNS.Load()) / time.Duration(n)).Round(time.Microsecond).String()
	}
	delta := heapHW.Load() - base
	if delta < 0 {
		delta = 0
	}
	return []string{
		mode,
		fmt.Sprintf("%d", n),
		meanExport,
		fmt.Sprintf("%.1fMB", float64(delta)/(1<<20)),
		lat.Percentile(99).Round(time.Microsecond).String(),
	}, nil
}

// streamExport consumes one full streamed export chunk by chunk,
// discarding each — the bounded-memory consumer a real export pipeline
// (say, writing to a socket or file) would be.
func streamExport(db core.DB, a acl.Actor, sel gdpr.Selector) error {
	sr, ok := db.(core.StreamReader)
	if !ok {
		return fmt.Errorf("experiments: DB %T does not stream", db)
	}
	cur, err := sr.ReadDataStream(a, sel, core.DefaultStreamChunk)
	if err != nil {
		return err
	}
	defer cur.Close()
	for {
		if _, err := cur.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func heapInuse() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

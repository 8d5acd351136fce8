package experiments

import (
	"fmt"
	"io"
	"os"
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
	for _, leg := range []string{"no-export", "streamed", "materialized"} {
		row, err := exportLeg(leg, records, gets, threads)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("one subject owns %d of %d records; export chunk %d", records/8, records, core.DefaultStreamChunk),
		"redis model, 4 kvstore stripes, metadata indexing on; heap high-water sampled from runtime.ReadMemStats (HeapInuse) over the measured window",
		"streamed export holds per-stripe read locks per chunk and buffers O(chunk); materialized holds them per index probe but buffers the full O(result) slice",
	)
	return res, nil
}

// exportLeg loads a dataset whose subject 0 owns 1/8 of all records,
// then runs the foreground GET loop while the requested export mode
// loops in the background, and reports the F13 row.
func exportLeg(leg string, records, gets, threads int) ([]string, error) {
	dir, err := os.MkdirTemp("", "gdprbench-f13-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := core.Open(core.Options{
		Engine:     "redis",
		Dir:        dir,
		Compliance: core.Compliance{AccessControl: true, MetadataIndexing: true},
		KVStripes:  4, DisableDaemons: true,
	}, nil)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	cfg := core.Config{
		Records: records, Operations: gets, Threads: threads, Seed: 1,
		RecordsPerUser: records / 8, // 8 subjects; subject 0's export is 1/8 of the store
	}
	ds, _, err := core.Load(db, cfg, nil)
	if err != nil {
		return nil, err
	}

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
	if leg != "no-export" {
		exportWG.Add(1)
		go func() {
			defer exportWG.Done()
			for {
				select {
				case <-stopExport:
					return
				default:
				}
				t0 := time.Now()
				var err error
				if leg == "streamed" {
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
			}
		}()
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
		return nil, fmt.Errorf("experiments: F13 %s GET: %w", leg, err)
	}
	if exportErr != nil {
		return nil, fmt.Errorf("experiments: F13 %s export: %w", leg, exportErr)
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
		leg,
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

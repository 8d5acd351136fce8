package audit

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Repro: during seal(), the rolled segment is momentarily present in both
// s.sealed and s.actRef (actRef is only reset by openActive at the end),
// so a concurrent snapshot() replays it twice -> duplicate entries.
func TestSealSnapshotDuplicate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trail.log")
	l, err := Open(Config{
		Path: path, Pipeline: PipeAsync, Policy: SyncNone,
		MemoryCap: 8, SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var dups atomic.Int64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			out, err := l.Range(time.Time{}, time.Now().Add(time.Hour))
			if err != nil {
				t.Error(err)
				return
			}
			seen := make(map[uint64]int, len(out))
			for _, e := range out {
				seen[e.Seq]++
				if seen[e.Seq] > 1 {
					dups.Add(1)
				}
			}
			if dups.Load() > 0 {
				return
			}
		}
	}()
	big := strings.Repeat("x", 120)
	for i := 0; i < 3000; i++ {
		if _, err := l.Append(Entry{Actor: "a", Op: "op", Note: big}); err != nil {
			t.Fatal(err)
		}
		if dups.Load() > 0 {
			break
		}
	}
	close(stop)
	<-done
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := dups.Load(); n > 0 {
		t.Fatalf("Range returned %d duplicate-seq entries (segment replayed from both sealed and actRef during seal)", n)
	}
}

package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/securefs"
)

// These tests pin the rewrite path's safety properties: a rewrite that
// crashed before its rename must not leak state into a recovery, a
// rewritten AOF must hold zero bytes of deleted (right-to-be-forgotten)
// payloads, an auto-triggered rewrite must round-trip through replay,
// and a background rewrite racing live traffic must leave a log that
// replays to the exact live state.

// bothProfiles runs fn against the Redis-faithful profile (Striping 0:
// exclusive reads, Direct AOF) and the striped staged-AOF profile.
func bothProfiles(t *testing.T, fn func(t *testing.T, stripes int)) {
	for _, stripes := range []int{0, 4} {
		name := "legacy"
		if stripes > 0 {
			name = fmt.Sprintf("striped-%d", stripes)
		}
		t.Run(name, func(t *testing.T) { fn(t, stripes) })
	}
}

// TestCrashMidRewriteIgnored simulates a rewrite killed between writing
// the snapshot and the atomic rename: a fully valid ".rewrite" tmp sits
// next to the AOF, holding state that was never committed. Open must
// recover from the live AOF alone and discard the tmp.
func TestCrashMidRewriteIgnored(t *testing.T) {
	bothProfiles(t, func(t *testing.T, stripes int) {
		path := filepath.Join(t.TempDir(), "crash.aof")
		s, err := Open(Config{AOFPath: path, Striping: stripes})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := s.Set(fmt.Sprintf("live-%02d", i), "committed"); err != nil {
				t.Fatalf("set: %v", err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// The orphaned tmp: a well-formed snapshot whose content must
		// nevertheless never surface, because the rename never happened.
		tmp := path + ".rewrite"
		nf, err := securefs.Create(tmp, securefs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		buf = encodeCommand(buf, opSet, "phantom-key", "uncommitted-state")
		if err := nf.AppendFrame(buf); err != nil {
			t.Fatal(err)
		}
		if err := nf.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(Config{AOFPath: path, Striping: stripes})
		if err != nil {
			t.Fatalf("reopen after simulated crash: %v", err)
		}
		defer s2.Close()
		if s2.Exists("phantom-key") {
			t.Fatal("uncommitted rewrite tmp leaked into recovered state")
		}
		if n := s2.DBSize(); n != 20 {
			t.Fatalf("recovered %d keys, want 20", n)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("orphaned rewrite tmp not cleaned up: stat err=%v", err)
		}
	})
}

// TestRewriteErasesDeletedPayload is the storage-limitation check behind
// the paper's right-to-be-forgotten queries: after DEL + rewrite, the
// AOF on disk must contain zero bytes of the deleted record — not just
// a trailing DEL masking an earlier SET.
func TestRewriteErasesDeletedPayload(t *testing.T) {
	const victim = "victim-key"
	const secret = "SECRET-PII-PAYLOAD-DO-NOT-RETAIN"
	bothProfiles(t, func(t *testing.T, stripes int) {
		path := filepath.Join(t.TempDir(), "rtbf.aof")
		s, err := Open(Config{AOFPath: path, Striping: stripes})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 10; i++ {
			if err := s.Set(fmt.Sprintf("keep-%02d", i), "retained"); err != nil {
				t.Fatalf("set: %v", err)
			}
		}
		if err := s.Set(victim, secret); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Del(victim); err != nil {
			t.Fatal(err)
		}
		// Pre-rewrite the log still holds the payload (append-only).
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(secret)) {
			t.Fatal("sanity: append-only AOF should still hold the deleted payload")
		}

		if err := s.Rewrite(); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		var joined strings.Builder
		err = securefs.Replay(path, securefs.Options{}, func(frame []byte) error {
			joined.Write(frame)
			return nil
		})
		if err != nil {
			t.Fatalf("replay rewritten AOF: %v", err)
		}
		if strings.Contains(joined.String(), secret) {
			t.Fatal("rewritten AOF retains deleted payload bytes")
		}
		if strings.Contains(joined.String(), victim) {
			t.Fatal("rewritten AOF retains deleted key bytes")
		}
		if !strings.Contains(joined.String(), "keep-05") {
			t.Fatal("rewritten AOF lost a live key")
		}
	})
}

// TestAutoRewriteRoundTrip drives the -aofrewrite-pct trigger over its
// 1 MiB floor, waits for the background pass, and proves the compacted
// log replays to the same state.
func TestAutoRewriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "auto.aof")
	s, err := Open(Config{AOFPath: path, Striping: 4, AutoRewritePct: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 64 keys overwritten until the 1 MiB floor trips the trigger: the
	// append history grows past a mebibyte while the live dataset stays
	// ~256 KiB. Writes stop as soon as the background pass lands, so
	// the size assertion below sees the compacted file, not regrowth.
	val := strings.Repeat("x", 4096)
	deadline := time.Now().Add(30 * time.Second)
writing:
	for round := 0; ; round++ {
		for i := 0; i < 64; i++ {
			if s.Stats().AOFRewrites > 0 {
				break writing
			}
			if err := s.Set(fmt.Sprintf("hot-%02d", i), fmt.Sprintf("%s-%d", val, round)); err != nil {
				t.Fatalf("set: %v", err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("auto rewrite never fired")
		}
	}
	want := snapshot(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted log is O(live data): one frame per key, not the
	// full overwrite history.
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() > autoRewriteMinBytes {
		t.Fatalf("post-rewrite AOF is %d bytes, want < %d", fi.Size(), autoRewriteMinBytes)
	}
	s2, err := Open(Config{AOFPath: path, Striping: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := snapshot(s2); !equalStrings(got, want) {
		t.Fatalf("replay diverged after auto rewrite: got %d keys want %d", len(got), len(want))
	}
	if s2.Stats().ReplayOps == 0 {
		t.Fatal("replay stats not recorded")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRewriteConcurrentStress races writers, readers and background
// rewrites, then proves the surviving AOF replays to the exact live
// state — with staged writes (Striping 8) and with Direct writes under an
// exclusive lock (Striping 0). Run with -race this also exercises the
// divert-buffer and swap synchronization.
func TestRewriteConcurrentStress(t *testing.T) {
	for _, stripes := range []int{0, 8} {
		t.Run(fmt.Sprintf("striping=%d", stripes), func(t *testing.T) { rewriteConcurrentStress(t, stripes) })
	}
}

func rewriteConcurrentStress(t *testing.T, stripes int) {
	path := filepath.Join(t.TempDir(), "stress.aof")
	s, err := Open(Config{AOFPath: path, Striping: stripes, Clock: clock.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const opsPerWriter = 400
	var wg, rwg sync.WaitGroup
	stop := make(chan struct{})
	// Readers hammer GETs throughout — they must never block on the
	// rewrite's snapshot or observe torn state.
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Get(fmt.Sprintf("w%d-k%03d", i%writers, i%opsPerWriter))
			}
		}()
	}
	var werr sync.Map
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				k := fmt.Sprintf("w%d-k%03d", w, i)
				if err := s.Set(k, fmt.Sprintf("v%d", i)); err != nil {
					werr.Store(w, err)
					return
				}
				if i%7 == 0 {
					if _, err := s.Del(fmt.Sprintf("w%d-k%03d", w, i/2)); err != nil {
						werr.Store(w, err)
						return
					}
				}
			}
		}(w)
	}
	// Rewrites overlap the write storm.
	for i := 0; i < 3; i++ {
		if err := s.Rewrite(); err != nil {
			t.Fatalf("rewrite %d: %v", i, err)
		}
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	werr.Range(func(k, v any) bool {
		t.Fatalf("writer %v: %v", k, v)
		return false
	})
	// One final rewrite after the dust settles, then replay equality.
	if err := s.Rewrite(); err != nil {
		t.Fatal(err)
	}
	want := snapshot(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{AOFPath: path, Striping: stripes})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := snapshot(s2); !equalStrings(got, want) {
		t.Fatalf("replay diverged: got %d keys want %d", len(got), len(want))
	}
	if s2.Stats().ReplayOps == 0 {
		t.Fatal("replay stats not recorded")
	}
}

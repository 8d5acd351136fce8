package kvstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/securefs"
)

// These tests pin the striped profile (Config.Striping > 0) to the
// Redis-faithful one (Striping = 0: exclusive reads, AOF written by the
// caller): same observable state, byte-identical AOF for a sequential
// command stream, cross-profile replay in both directions, and race-free
// behavior under concurrent commands, expiry cycles and rewrites.

// snapshot flattens a store's live contents into sorted key=value|deadline
// lines for cross-profile comparison.
func snapshot(s *Store) []string {
	var out []string
	s.ScanChunk(0, math.MaxInt, func(k, v string, at time.Time) bool {
		out = append(out, fmt.Sprintf("%s=%s|%d", k, v, at.UnixNano()))
		return true
	})
	sort.Strings(out)
	return out
}

// applyOpStream drives a deterministic mixed command stream (writes,
// TTLs, deletes, a flush, expiry cycles) against s.
func applyOpStream(t *testing.T, s *Store, sim *clock.Sim) {
	t.Helper()
	base := sim.Now()
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if err := s.Set(k, fmt.Sprintf("val-%03d", i)); err != nil {
			t.Fatalf("set %s: %v", k, err)
		}
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("ttl-%03d", i)
		if err := s.SetWithExpiry(k, "transient", base.Add(time.Duration(i+1)*time.Second)); err != nil {
			t.Fatalf("setex %s: %v", k, err)
		}
	}
	if _, err := s.Del("key-000", "key-001", "missing"); err != nil {
		t.Fatalf("del: %v", err)
	}
	if _, err := s.ExpireAt("key-002", base.Add(time.Hour)); err != nil {
		t.Fatalf("expireat: %v", err)
	}
	if _, err := s.Persist("ttl-019"); err != nil {
		t.Fatalf("persist: %v", err)
	}
	if _, err := s.Update("key-003", func(v string, at time.Time) (string, time.Time, error) {
		return v + "+updated", at, nil
	}); err != nil {
		t.Fatalf("update: %v", err)
	}
	sim.Advance(10 * time.Second) // ttl-000..ttl-009 fall due
	s.CycleOnce()
	if err := s.FlushAll(); err != nil {
		t.Fatalf("flushall: %v", err)
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("post-%03d", i)
		if err := s.SetWithExpiry(k, "after-flush", sim.Now().Add(time.Hour)); err != nil {
			t.Fatalf("set %s: %v", k, err)
		}
	}
}

func TestStripedMatchesLegacyState(t *testing.T) {
	for _, stripes := range []int{4, 16} {
		t.Run(fmt.Sprintf("striping-%d", stripes), func(t *testing.T) {
			simA := clock.NewSim(time.Unix(1_500_000_000, 0))
			simB := clock.NewSim(time.Unix(1_500_000_000, 0))
			legacy, err := Open(Config{Clock: simA, ExpiryMode: ExpiryStrict})
			if err != nil {
				t.Fatal(err)
			}
			defer legacy.Close()
			striped, err := Open(Config{Clock: simB, ExpiryMode: ExpiryStrict, Striping: stripes})
			if err != nil {
				t.Fatal(err)
			}
			defer striped.Close()
			applyOpStream(t, legacy, simA)
			applyOpStream(t, striped, simB)
			a, b := snapshot(legacy), snapshot(striped)
			if len(a) != len(b) {
				t.Fatalf("state size diverged: legacy %d striped %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("state diverged at %d: legacy %q striped %q", i, a[i], b[i])
				}
			}
			if legacy.DBSize() != striped.DBSize() {
				t.Fatalf("dbsize diverged: %d vs %d", legacy.DBSize(), striped.DBSize())
			}
			if legacy.MemoryBytes() != striped.MemoryBytes() {
				t.Fatalf("memory diverged: %d vs %d", legacy.MemoryBytes(), striped.MemoryBytes())
			}
		})
	}
}

// aofGoldenSHA256 is the SHA-256 of the unencrypted AOF that
// TestStripedAOFByteIdentical's command stream produced through the
// pre-PR-15 inline appender (a second encoder, since deleted). Both
// profiles now share one encoder, so comparing them with each other no
// longer catches frame-format drift; this constant does.
const aofGoldenSHA256 = "978e2f023ac047db7cc0297a05eafdc7caa0466d43ed22f6d2ea875219af89f1"

// TestStripedAOFByteIdentical: for one sequential command stream, the
// staged pipeline must produce the exact bytes the Direct profile writes
// — the two write modes are interchangeable on disk — and both must
// match the golden hash. The stream avoids expiry cycles: strict-cycle
// victims come out of a randomized map walk, so their DEL order is not
// byte-stable even between two runs of one profile.
func TestStripedAOFByteIdentical(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "legacy.aof")
	pathB := filepath.Join(dir, "striped.aof")
	base := time.Unix(1_500_000_000, 0)
	stream := func(s *Store) error {
		for i := 0; i < 50; i++ {
			if err := s.Set(fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i)); err != nil {
				return err
			}
		}
		for i := 0; i < 20; i++ {
			if err := s.SetWithExpiry(fmt.Sprintf("ttl-%03d", i), "transient", base.Add(time.Duration(i+1)*time.Hour)); err != nil {
				return err
			}
		}
		if _, err := s.Del("key-000", "key-001", "missing"); err != nil {
			return err
		}
		if _, err := s.ExpireAt("key-002", base.Add(time.Hour)); err != nil {
			return err
		}
		if _, err := s.Persist("ttl-019"); err != nil {
			return err
		}
		if err := s.FlushAll(); err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			if err := s.Set(fmt.Sprintf("post-%03d", i), "after-flush"); err != nil {
				return err
			}
		}
		return nil
	}
	legacy, err := Open(Config{Clock: clock.NewSim(base), AOFPath: pathA})
	if err != nil {
		t.Fatal(err)
	}
	striped, err := Open(Config{Clock: clock.NewSim(base), AOFPath: pathB, Striping: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream(legacy); err != nil {
		t.Fatal(err)
	}
	if err := stream(striped); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := striped.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("AOF bytes diverged: legacy %d bytes, striped %d bytes", len(a), len(b))
	}
	for name, file := range map[string][]byte{"striping=0": a, "striping=8": b} {
		if got := fmt.Sprintf("%x", sha256.Sum256(file)); got != aofGoldenSHA256 {
			t.Errorf("%s: AOF frame format drifted: sha256 %s, want %s", name, got, aofGoldenSHA256)
		}
	}
}

// TestStripedCrossReplay: an AOF written by either profile must replay
// into either profile.
func TestStripedCrossReplay(t *testing.T) {
	for _, w := range []struct {
		name    string
		writer  int
		readers []int
	}{
		{"striped-writes", 8, []int{0, 4}},
		{"legacy-writes", 0, []int{8}},
	} {
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cross.aof")
			sim := clock.NewSim(time.Unix(1_500_000_000, 0))
			src, err := Open(Config{Clock: sim, AOFPath: path, ExpiryMode: ExpiryStrict, Striping: w.writer})
			if err != nil {
				t.Fatal(err)
			}
			applyOpStream(t, src, sim)
			want := snapshot(src)
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			for _, stripes := range w.readers {
				sim2 := clock.NewSim(sim.Now())
				dst, err := Open(Config{Clock: sim2, AOFPath: path, ExpiryMode: ExpiryStrict, Striping: stripes})
				if err != nil {
					t.Fatalf("reopen striping=%d: %v", stripes, err)
				}
				got := snapshot(dst)
				dst.Close()
				if len(got) != len(want) {
					t.Fatalf("striping=%d replay size %d want %d", stripes, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("striping=%d replay diverged at %d: %q want %q", stripes, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestStripedFsyncAlwaysDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "always.aof")
	s, err := Open(Config{AOFPath: path, AOFSync: FsyncAlways, Striping: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// appendfsync always: every acknowledged write is already fsynced, so
	// the durable file is complete before Close.
	st := s.Stats()
	if st.AOFFlushes == 0 {
		t.Fatal("appendfsync always performed no fsyncs")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{AOFPath: path, Striping: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.DBSize(); n != 100 {
		t.Fatalf("replayed %d keys, want 100", n)
	}
}

func TestStripedRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.aof")
	s, err := Open(Config{AOFPath: path, Striping: 4})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			if err := s.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("round-%d", round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before, err := s.AOFSize()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rewrite(); err != nil {
		t.Fatal(err)
	}
	after, err := s.AOFSize()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("rewrite did not compact: %d -> %d", before, after)
	}
	// The pipe must keep appending to the swapped-in file.
	if err := s.Set("post-rewrite", "v"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{AOFPath: path, Striping: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("k49"); !ok || v != "round-4" {
		t.Fatalf("k49 = %q,%v after rewrite replay", v, ok)
	}
	if _, ok := s2.Get("post-rewrite"); !ok {
		t.Fatal("post-rewrite write lost")
	}
}

func TestStripedScanCoversAllKeys(t *testing.T) {
	s, err := Open(Config{Striping: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string]bool{}
	for i := 0; i < 97; i++ {
		k := fmt.Sprintf("scan-%03d", i)
		want[k] = true
		if err := s.Set(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	cursor := 0
	for {
		keys, next := s.Scan(cursor, 10)
		for _, k := range keys {
			got[k] = true
		}
		if next == 0 {
			break
		}
		cursor = next
	}
	if len(got) != len(want) {
		t.Fatalf("scan covered %d keys, want %d", len(got), len(want))
	}
	if keys, next := s.Scan(10_000, 10); keys != nil || next != 0 {
		t.Fatalf("out-of-range cursor returned %v,%d", keys, next)
	}
}

// TestStripedConcurrentStress exercises the striped engine under -race:
// concurrent writers, readers, scans, expiry cycles and a rewrite, all
// against a live staged AOF.
func TestStripedConcurrentStress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stress.aof")
	s, err := Open(Config{AOFPath: path, AOFSync: FsyncEverySec, Striping: 8, MetadataIndexing: true})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		opsEach = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%50)
				switch i % 7 {
				case 0, 1, 2:
					if err := s.Set(k, fmt.Sprintf("v%d", i)); err != nil {
						t.Errorf("set: %v", err)
						return
					}
				case 3:
					s.Get(k)
				case 4:
					if _, err := s.Del(k); err != nil {
						t.Errorf("del: %v", err)
						return
					}
				case 5:
					// Deadlines are either already past or an hour out, so a
					// key's expired-ness cannot flip between the live snapshot
					// and the replay check below.
					deadline := time.Now().Add(-time.Second)
					if i%2 == 0 {
						deadline = time.Now().Add(time.Hour)
					}
					if err := s.SetWithExpiry(k, "ttl", deadline); err != nil {
						t.Errorf("setex: %v", err)
						return
					}
				case 6:
					n := 0
					s.ScanChunk(0, math.MaxInt, func(string, string, time.Time) bool {
						n++
						return n < 20
					})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.CycleOnce()
			s.Scan(0, 25)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := s.Rewrite(); err != nil {
				t.Errorf("rewrite: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := snapshot(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything the live store held must replay.
	s2, err := Open(Config{AOFPath: path, Striping: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := snapshot(s2)
	if len(got) < len(want) {
		t.Fatalf("replay lost keys: %d < %d", len(got), len(want))
	}
}

func TestStripedInfoAndStats(t *testing.T) {
	s, err := Open(Config{Striping: 5}) // rounds up to 8
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Info()["striping"]; got != "8" {
		t.Fatalf("striping info = %q, want 8", got)
	}
	st := s.Stats()
	if st.Stripes != 8 {
		t.Fatalf("Stats.Stripes = %d, want 8", st.Stripes)
	}
	legacy, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if got := legacy.Info()["striping"]; got != "0" {
		t.Fatalf("legacy striping info = %q, want 0", got)
	}
}

func TestStripedLogReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reads.aof")
	s, err := Open(Config{AOFPath: path, LogReads: true, Striping: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set("a", "1"); err != nil {
		t.Fatal(err)
	}
	s.Get("a")
	s.Get("missing")
	s.Scan(0, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// 1 SET + 2 GET + 1 SCAN — and the read frames must replay as no-ops.
	s2, err := Open(Config{AOFPath: path, LogReads: true, Striping: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("a"); !ok || v != "1" {
		t.Fatalf("a = %q,%v after read-logged replay", v, ok)
	}
	if n := s2.DBSize(); n != 1 {
		t.Fatalf("dbsize = %d, want 1", n)
	}
}

// TestStripedAOFFailureIsSticky: once the AOF file refuses a frame, the
// store stops acknowledging writes — the first error comes back from
// every later mutating command, from Sync and from Close — and a rewrite
// refuses to swap a snapshot over a log it can no longer vouch for. Del
// is the sharp case: an erasure whose DEL frame did not reach the log
// must not be acknowledged.
func TestStripedAOFFailureIsSticky(t *testing.T) {
	keep := func(v string, at time.Time) (string, time.Time, error) { return v, at, nil }
	ops := []struct {
		name string
		run  func(s *Store) error
	}{
		{"Set", func(s *Store) error { return s.Set("after", "v") }},
		{"Update", func(s *Store) error { _, err := s.Update("before", keep); return err }},
		{"ExpireAt", func(s *Store) error { _, err := s.ExpireAt("before", time.Now().Add(time.Hour)); return err }},
		{"Persist", func(s *Store) error { _, err := s.Persist("ttl"); return err }},
		{"Del", func(s *Store) error { _, err := s.Del("before"); return err }},
		{"FlushAll", func(s *Store) error { return s.FlushAll() }},
		{"Sync", func(s *Store) error { return s.Sync() }},
		{"Rewrite", func(s *Store) error { return s.Rewrite() }},
		{"Close", func(s *Store) error { return s.Close() }},
	}
	for _, stripes := range []int{0, 4} {
		for _, policy := range []FsyncPolicy{FsyncAlways, FsyncEverySec} {
			t.Run(fmt.Sprintf("striping=%d/%v", stripes, policy), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "broken.aof")
				s, err := Open(Config{AOFPath: path, AOFSync: policy, Striping: stripes})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Set("before", "v"); err != nil {
					t.Fatal(err)
				}
				if err := s.SetWithExpiry("ttl", "v", time.Now().Add(time.Hour)); err != nil {
					t.Fatal(err)
				}
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
				// Sabotage: close the file under the pipe, so the next frame fails.
				s.pipe.fileMu.Lock()
				s.pipe.file.Close()
				s.pipe.fileMu.Unlock()
				_ = s.Set("lost", "v") // everysec returns before the failure shows
				first := s.Sync()
				if first == nil {
					t.Fatal("Sync after a failed AOF write should error")
				}
				for _, op := range ops {
					if err := op.run(s); err != first {
						t.Errorf("%s after failure = %v, want %v", op.name, err, first)
					}
					if _, err := os.Stat(path + ".rewrite"); !os.IsNotExist(err) {
						t.Fatalf("%s: refused rewrite left its tmp file behind (stat err %v)", op.name, err)
					}
				}
			})
		}
	}
}

// TestIdleAOFFlushEverySec: under appendfsync everysec a store that goes
// quiet still gets its last commands — an acknowledged DEL included — out
// of the userspace buffer and fsynced within the interval, with no
// further command, Sync or Close to push them.
func TestIdleAOFFlushEverySec(t *testing.T) {
	for _, stripes := range []int{0, 4} {
		t.Run(fmt.Sprintf("striping=%d", stripes), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "idle.aof")
			sim := clock.NewSim(time.Unix(1_500_000_000, 0))
			s, err := Open(Config{Clock: sim, AOFPath: path, AOFSync: FsyncEverySec, Striping: stripes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Set("erase-me", "pii"); err != nil {
				t.Fatal(err)
			}
			if n, err := s.Del("erase-me"); n != 1 || err != nil {
				t.Fatalf("del = %d, %v", n, err)
			}
			// Only the clock moves from here. The flush timer is armed
			// asynchronously, so step a second at a time until it has fired.
			deadline := time.Now().Add(2 * time.Second)
			for s.Stats().AOFFlushes == 0 && time.Now().Before(deadline) {
				sim.Advance(time.Second)
				time.Sleep(time.Millisecond)
			}
			if n := s.Stats().AOFFlushes; n < 1 {
				t.Errorf("idle AOF was never fsynced (AOFFlushes = %d)", n)
			}
			sawDel := false
			err = securefs.Replay(path, securefs.Options{}, func(frame []byte) error {
				args, err := decodeCommand(frame)
				if err == nil && len(args) == 2 && args[0] == opDel && args[1] == "erase-me" {
					sawDel = true
				}
				return err
			})
			if err != nil {
				t.Fatalf("read AOF from disk: %v", err)
			}
			if !sawDel {
				t.Fatal("acknowledged DEL is not in the on-disk AOF after an idle second")
			}
		})
	}
}

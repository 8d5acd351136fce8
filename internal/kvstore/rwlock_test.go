package kvstore

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/gdpr"
	"repro/internal/securefs"
)

// TestStripedRLockLazyExpiryUpgrade races shared-lock readers, a writer
// and expiry cycles on ONE stripe (Striping: 1 keeps striped semantics
// with a single stripe, so everything contends on the same RWMutex). It
// pins the two contracts of the read path's lock upgrade:
//
//   - an expired key is never served: every Get/Exists/TTL that observes
//     a due deadline under RLock must report a miss, even while other
//     readers race the same upgrade and a writer holds the lock;
//   - the AOF DEL for an expiry victim is staged exactly once, by the
//     expiry cycle that deleted it — lazy (on-read) expiry stages no DEL
//     by design (replay re-applies the SETEX), and the upgrade's
//     re-check must not double-delete a key a concurrent upgrade or
//     cycle already reaped.
func TestStripedRLockLazyExpiryUpgrade(t *testing.T) {
	const (
		expKeys  = 64
		liveKeys = 64
		readers  = 4
		rounds   = 200
	)
	sim := clock.NewSim(time.Time{})
	path := filepath.Join(t.TempDir(), "aof")
	s, err := Open(Config{
		Clock:      sim,
		AOFPath:    path,
		AOFSync:    FsyncNo,
		ExpiryMode: ExpiryStrict,
		Striping:   1,
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := sim.Now().Add(time.Second)
	for i := 0; i < expKeys; i++ {
		if err := s.SetWithExpiry(fmt.Sprintf("exp-%02d", i), "doomed", deadline); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < liveKeys; i++ {
		if err := s.Set(fmt.Sprintf("live-%02d", i), "v0"); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(2 * time.Second) // every exp- key is now due

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ek := fmt.Sprintf("exp-%02d", i%expKeys)
				if v, ok := s.Get(ek); ok {
					t.Errorf("Get served expired key %s = %q", ek, v)
				}
				if s.Exists(ek) {
					t.Errorf("Exists reported expired key %s", ek)
				}
				if _, ok := s.TTL(ek); ok {
					t.Errorf("TTL reported expired key %s", ek)
				}
				lk := fmt.Sprintf("live-%02d", i%liveKeys)
				if v, ok := s.Get(lk); !ok || v == "" {
					t.Errorf("Get lost live key %s (ok=%v)", lk, ok)
				}
			}
		}()
	}
	// Writer churns the live keys on the same stripe, so exclusive holds
	// interleave with the readers' shared holds and upgrade attempts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := s.Set(fmt.Sprintf("live-%02d", i%liveKeys), fmt.Sprintf("w%d", i)); err != nil {
				t.Errorf("Set: %v", err)
			}
		}
	}()
	// Expiry cycles race the lazy (on-read) expirations for the same
	// victims; cycleExpired counts only the deletions the cycles won.
	cycleExpired := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			cycleExpired += s.CycleOnce().Expired
		}
	}()
	wg.Wait()

	for i := 0; i < expKeys; i++ {
		if s.Exists(fmt.Sprintf("exp-%02d", i)) {
			t.Errorf("exp-%02d survived lazy expiry and %d cycles", i, 8)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay the AOF: every DEL frame must name an exp- key, no key may
	// carry more than one, and the total must equal the cycles' kill
	// count — lazy expirations contribute none.
	dels := map[string]int{}
	err = securefs.Replay(path, securefs.Options{}, func(p []byte) error {
		args, derr := decodeCommand(p)
		if derr != nil {
			return derr
		}
		if args[0] == opDel {
			dels[args[1]]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for k, n := range dels {
		if n != 1 {
			t.Errorf("key %s has %d AOF DEL frames, want exactly 1", k, n)
		}
		if len(k) < 4 || k[:4] != "exp-" {
			t.Errorf("unexpected AOF DEL for non-expiry key %s", k)
		}
		total += n
	}
	if total != cycleExpired {
		t.Errorf("AOF holds %d DEL frames, expiry cycles reported %d victims", total, cycleExpired)
	}
}

// TestStripedReadersShareTheLock pins the read concurrency itself,
// independent of host parallelism: with a stripe's lock already held in
// shared mode, Get/Exists/TTL on that stripe must still complete —
// i.e. the striped read path acquires the RWMutex shared, where the
// pre-RWMutex engine (and today's legacy profile) would block behind
// any holder.
func TestStripedReadersShareTheLock(t *testing.T) {
	s, err := Open(Config{Striping: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	st := s.stripeFor("k")
	st.mu.RLock()
	defer st.mu.RUnlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, ok := s.Get("k"); !ok || v != "v" {
			t.Errorf("Get under a shared holder: %q, %v", v, ok)
		}
		if !s.Exists("k") {
			t.Error("Exists under a shared holder reported a miss")
		}
		if d, ok := s.TTL("k"); !ok || d != 0 {
			t.Errorf("TTL under a shared holder: %v, %v (want 0, true for a persistent key)", d, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reads blocked behind a shared lock holder — the striped read path is not taking RLock")
	}
}

// TestSelectorFnLockHold pins where the selector walks run fn, at both
// batch sizes (one whole-result call, and a cursor of 5-entry chunks).
// At Striping = 0 the store stays exclusively locked until fn is done —
// predicate evaluation is part of the serialized command, the Figure 7b
// cost model — and the lock is free again on every way out (full walk,
// early stop, unindexed dimension). With Striping > 0 fn runs over the
// copy-out with no stripe lock held.
func TestSelectorFnLockHold(t *testing.T) {
	for _, striping := range []int{0, 4} {
		t.Run(fmt.Sprintf("striping=%d", striping), func(t *testing.T) {
			s, err := Open(Config{Striping: striping, MetadataIndexing: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 32; i++ {
				key := fmt.Sprintf("k%02d", i)
				rec := gdpr.Record{Key: key, Data: "d", Meta: gdpr.Metadata{User: "u1"}}
				if err := s.Set(key, gdpr.Encode(rec)); err != nil {
					t.Fatal(err)
				}
			}
			free := func() bool {
				for i := range s.stripes {
					if !s.stripes[i].mu.TryLock() {
						return false
					}
					s.stripes[i].mu.Unlock()
				}
				return true
			}
			for _, limit := range []int{math.MaxInt, 5} {
				for _, stop := range []bool{false, true} {
					visits, stopped := 0, false
					visit := func(string, string, time.Time) bool {
						visits++
						if got, want := free(), striping > 0; got != want {
							t.Errorf("stripe locks free inside fn = %v, want %v", got, want)
						}
						stopped = stop
						return !stop
					}
					for cursor, done := 0, false; !done && !stopped; {
						cursor, done = s.ScanChunk(cursor, limit, visit)
						if !free() {
							t.Fatalf("ScanChunk(limit=%d, stop=%v) left a stripe locked", limit, stop)
						}
					}
					stopped = false
					for after, done := "", false; !done && !stopped; {
						var ok bool
						if after, done, ok = s.IndexedChunk(gdpr.AttrUser, "u1", after, limit, visit); !ok {
							t.Fatal("IndexedChunk: USR is an indexed dimension")
						}
						if !free() {
							t.Fatalf("IndexedChunk(limit=%d, stop=%v) left a stripe locked", limit, stop)
						}
					}
					if want := map[bool]int{false: 64, true: 2}[stop]; visits != want {
						t.Fatalf("limit=%d stop=%v: fn ran %d times, want %d", limit, stop, visits, want)
					}
				}
			}
			if _, _, ok := s.IndexedChunk(gdpr.AttrData, "d", "", math.MaxInt, func(string, string, time.Time) bool { return true }); ok {
				t.Fatal("IndexedChunk: DATA is not an indexed dimension")
			}
			if !free() {
				t.Fatal("IndexedChunk on an unindexed dimension left a stripe locked")
			}
		})
	}
}

package kvstore

import (
	"sync"
	"time"
)

// This file implements active TTL expiry: the native lazy probabilistic
// cycle (Redis' activeExpireCycle, whose erasure delay Figure 3a measures)
// and the paper's strict full-scan modification (§5.1, which brings
// erasure down to "sub-second latency for sizes of up to 1 million keys").
//
// Each cycle sweeps every stripe independently under that stripe's own
// lock (concurrently, one goroutine per stripe), so expiry never stalls
// commands on other stripes; the lazy sampler's per-iteration budget
// applies per stripe. Cycle victims log their AOF DEL through expiryDel,
// without backpressure.

// CycleStats reports what one expiry cycle did.
type CycleStats struct {
	// Sampled is how many keys the cycle examined.
	Sampled int
	// Expired is how many keys the cycle deleted.
	Expired int
	// Iterations is how many sample rounds ran (lazy mode repeats while
	// ≥ expireRepeatThreshold of a round's samples were expired). With
	// striping it is the deepest per-stripe round count.
	Iterations int
}

// CycleOnce runs one active-expiry cycle at the store's current time using
// the configured mode, and reports what it did. The experiment harness
// drives this from a simulated clock; ServeExpiry drives it in real time.
func (s *Store) CycleOnce() CycleStats {
	now := s.clk.Now()
	results := make([]CycleStats, len(s.stripes))
	var wg sync.WaitGroup
	for i := range s.stripes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &s.stripes[i]
			st.writes.Add(1)
			st.mu.Lock()
			defer st.mu.Unlock()
			if s.closed.Load() {
				return
			}
			results[i] = s.cycleStripe(st, now)
		}(i)
	}
	wg.Wait()
	var total CycleStats
	for _, cs := range results {
		total.Sampled += cs.Sampled
		total.Expired += cs.Expired
		if cs.Iterations > total.Iterations {
			total.Iterations = cs.Iterations
		}
	}
	return total
}

// cycleStripe runs one cycle over a single stripe; the caller holds its
// lock.
func (s *Store) cycleStripe(st *stripe, now time.Time) CycleStats {
	if s.mode == ExpiryStrict {
		return s.strictCycleStripe(st, now)
	}
	return s.lazyCycleStripe(st, now)
}

// lazyCycleStripe is Redis' algorithm scoped to one stripe: sample
// expireSampleSize keys from the stripe's expires dict; delete the
// expired ones; if at least expireRepeatThreshold were expired, repeat
// immediately, else stop.
func (s *Store) lazyCycleStripe(st *stripe, now time.Time) CycleStats {
	var cs CycleStats
	for cs.Iterations < expireMaxIterations {
		cs.Iterations++
		sampled, expired := 0, 0
		// Go's map iteration order is randomized per range, which gives
		// us the random sampling the algorithm requires without extra
		// bookkeeping (Redis uses dictGetRandomKey). The expires dict
		// carries the deadline, so no main-dict lookup is needed.
		var victims []string
		for k, at := range st.expires {
			sampled++
			if !at.After(now) {
				victims = append(victims, k)
			}
			if sampled >= expireSampleSize {
				break
			}
		}
		for _, k := range victims {
			if st.del(k) {
				expired++
				s.expiryDel(k)
			}
		}
		cs.Sampled += sampled
		cs.Expired += expired
		// Stop when the expired density of this round fell below the
		// repeat threshold, or nothing is left to sample.
		if expired < expireRepeatThreshold || len(st.expires) == 0 {
			break
		}
	}
	return cs
}

// strictCycleStripe is the paper's modification scoped to one stripe:
// iterate the stripe's entire expires dict and delete everything that is
// due. With metadata indexing on, the walk is replaced by a range scan of
// the stripe's ordered expiry index — the cycle examines exactly the due
// entries, O(expired + log n) instead of O(all TTL'd keys) — while the
// baseline keeps the paper's full-walk profile.
func (s *Store) strictCycleStripe(st *stripe, now time.Time) CycleStats {
	var cs CycleStats
	cs.Iterations = 1
	var victims []string
	if st.exp != nil {
		victims = st.exp.Due(now)
		cs.Sampled = len(victims)
	} else {
		for k, at := range st.expires {
			cs.Sampled++
			if !at.After(now) {
				victims = append(victims, k)
			}
		}
	}
	for _, k := range victims {
		if st.del(k) {
			cs.Expired++
			s.expiryDel(k)
		}
	}
	return cs
}

// StartExpiry launches the background expiry loop: one cycle every
// ExpireCyclePeriod on the store's clock, until StopExpiry or Close.
// Calling it twice is a no-op while a loop is running.
func (s *Store) StartExpiry() {
	s.expMu.Lock()
	if s.closed.Load() || s.stopExpiry != nil {
		s.expMu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stopExpiry = stop
	s.expiryDone = done
	clk := s.clk
	s.expMu.Unlock()

	go func() {
		defer close(done)
		for {
			timer := clk.After(ExpireCyclePeriod)
			select {
			case <-stop:
				return
			case <-timer:
				s.CycleOnce()
			}
		}
	}()
}

// StopExpiry stops the background expiry loop, waiting for it to exit.
func (s *Store) StopExpiry() {
	s.expMu.Lock()
	stop := s.stopExpiry
	done := s.expiryDone
	s.stopExpiry = nil
	s.expiryDone = nil
	s.expMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// ExpiredKeys returns the keys whose TTL has passed but which are still
// present; the controller's DELETE-RECORD-BY-TTL purge deletes them. With
// metadata indexing on it is an O(expired) range scan of each stripe's
// ordered expiry index (in per-stripe deadline order); otherwise it walks
// the expires dicts, whose entries carry their deadline — every expires
// entry is live by invariant (deletion clears both dicts; dead-entry
// cleanup happens in the expiry cycle), so no main-dict check is needed
// on either path.
func (s *Store) ExpiredKeys() []string {
	now := s.clk.Now()
	var out []string
	for i := range s.stripes {
		st := &s.stripes[i]
		s.rlock(st)
		if st.exp != nil {
			out = append(out, st.exp.Due(now)...)
		} else {
			for k, at := range st.expires {
				if !at.After(now) {
					out = append(out, k)
				}
			}
		}
		s.runlock(st)
	}
	return out
}

// ExpiredRemaining counts keys whose TTL has passed but which are still
// present (not yet reaped). The Figure 3a experiment polls this to measure
// erasure delay. O(expired) when the ordered expiry index is on.
func (s *Store) ExpiredRemaining() int {
	now := s.clk.Now()
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		s.rlock(st)
		if st.exp != nil {
			n += st.exp.DueCount(now)
		} else {
			for _, at := range st.expires {
				if !at.After(now) {
					n++
				}
			}
		}
		s.runlock(st)
	}
	return n
}

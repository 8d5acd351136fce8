package kvstore

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/securefs"
)

func memStore(t *testing.T, clk clock.Clock) *Store {
	t.Helper()
	s, err := Open(Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSetGetDel(t *testing.T) {
	s := memStore(t, nil)
	if err := s.Set("k1", "v1"); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k1"); !ok || v != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key found")
	}
	if err := s.Set("k1", "v2"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("k1"); v != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	n, err := s.Del("k1", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Del = %d", n)
	}
	if s.Exists("k1") {
		t.Fatal("deleted key exists")
	}
	if s.DBSize() != 0 {
		t.Fatalf("DBSize = %d", s.DBSize())
	}
}

func TestExpiryOnAccess(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s := memStore(t, sim)
	if err := s.SetWithExpiry("k", "v", sim.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); !ok {
		t.Fatal("live key missing")
	}
	sim.Advance(2 * time.Minute)
	if _, ok := s.Get("k"); ok {
		t.Fatal("expired key returned")
	}
	// Lazy deletion removed the key entirely.
	if s.DBSize() != 0 || s.ExpiresSize() != 0 {
		t.Fatalf("expired key not reaped: dbsize=%d expires=%d", s.DBSize(), s.ExpiresSize())
	}
}

func TestExistsExpiresLazily(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s := memStore(t, sim)
	s.SetWithExpiry("k", "v", sim.Now().Add(time.Second))
	sim.Advance(2 * time.Second)
	if s.Exists("k") {
		t.Fatal("expired key exists")
	}
}

func TestTTLAndPersist(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s := memStore(t, sim)
	s.Set("plain", "v")
	if d, ok := s.TTL("plain"); !ok || d != 0 {
		t.Fatalf("no-TTL key: %v %v", d, ok)
	}
	if _, ok := s.TTL("absent"); ok {
		t.Fatal("absent key has TTL")
	}
	s.SetWithExpiry("tmp", "v", sim.Now().Add(time.Hour))
	if d, ok := s.TTL("tmp"); !ok || d != time.Hour {
		t.Fatalf("TTL = %v %v", d, ok)
	}
	if ok, err := s.Persist("tmp"); err != nil || !ok {
		t.Fatalf("Persist = %v %v", ok, err)
	}
	if ok, _ := s.Persist("tmp"); ok {
		t.Fatal("second Persist should report false")
	}
	if s.ExpiresSize() != 0 {
		t.Fatalf("expires size = %d", s.ExpiresSize())
	}
	sim.Advance(2 * time.Hour)
	if !s.Exists("tmp") {
		t.Fatal("persisted key expired")
	}
}

func TestExpireAt(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s := memStore(t, sim)
	s.Set("k", "v")
	if ok, err := s.ExpireAt("k", sim.Now().Add(time.Second)); err != nil || !ok {
		t.Fatalf("ExpireAt = %v %v", ok, err)
	}
	if ok, _ := s.ExpireAt("absent", sim.Now()); ok {
		t.Fatal("ExpireAt on absent key reported true")
	}
	sim.Advance(2 * time.Second)
	if s.Exists("k") {
		t.Fatal("key did not expire")
	}
}

func TestOverwriteClearsOldTTL(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s := memStore(t, sim)
	s.SetWithExpiry("k", "v1", sim.Now().Add(time.Second))
	s.Set("k", "v2") // plain SET clears TTL, like Redis
	sim.Advance(time.Minute)
	if v, ok := s.Get("k"); !ok || v != "v2" {
		t.Fatalf("key expired after overwrite: %q %v", v, ok)
	}
	if s.ExpiresSize() != 0 {
		t.Fatalf("expires size = %d", s.ExpiresSize())
	}
}

func TestMemoryBytesAccounting(t *testing.T) {
	s := memStore(t, nil)
	s.Set("abc", "12345") // 8 bytes
	if got := s.MemoryBytes(); got != 8 {
		t.Fatalf("bytes = %d, want 8", got)
	}
	s.Set("abc", "1") // 4 bytes
	if got := s.MemoryBytes(); got != 4 {
		t.Fatalf("bytes after overwrite = %d, want 4", got)
	}
	s.Del("abc")
	if got := s.MemoryBytes(); got != 0 {
		t.Fatalf("bytes after delete = %d, want 0", got)
	}
}

func TestForEachSkipsExpired(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s := memStore(t, sim)
	s.Set("live", "v")
	s.SetWithExpiry("dead", "v", sim.Now().Add(time.Second))
	sim.Advance(time.Minute)
	var seen []string
	s.ScanChunk(0, math.MaxInt, func(k, v string, _ time.Time) bool {
		seen = append(seen, k)
		return true
	})
	if len(seen) != 1 || seen[0] != "live" {
		t.Fatalf("ScanChunk saw %v", seen)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := memStore(t, nil)
	for i := 0; i < 10; i++ {
		s.Set(fmt.Sprintf("k%d", i), "v")
	}
	n := 0
	s.ScanChunk(0, math.MaxInt, func(string, string, time.Time) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestScanCursor(t *testing.T) {
	s := memStore(t, nil)
	want := map[string]bool{}
	for i := 0; i < 25; i++ {
		k := fmt.Sprintf("k%d", i)
		s.Set(k, "v")
		want[k] = true
	}
	got := map[string]bool{}
	cursor := 0
	rounds := 0
	for {
		keys, next := s.Scan(cursor, 10)
		for _, k := range keys {
			got[k] = true
		}
		rounds++
		if next == 0 {
			break
		}
		cursor = next
		if rounds > 10 {
			t.Fatal("scan did not terminate")
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scan found %d keys, want %d", len(got), len(want))
	}
	// Scan on empty store.
	s2 := memStore(t, nil)
	if keys, next := s2.Scan(0, 10); keys != nil || next != 0 {
		t.Fatalf("empty scan = %v %d", keys, next)
	}
	// Out-of-range cursor.
	if keys, next := s.Scan(9999, 10); keys != nil || next != 0 {
		t.Fatalf("oob scan = %v %d", keys, next)
	}
}

func TestFlushAll(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s := memStore(t, sim)
	s.Set("a", "1")
	s.SetWithExpiry("b", "2", sim.Now().Add(time.Hour))
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if s.DBSize() != 0 || s.ExpiresSize() != 0 || s.MemoryBytes() != 0 {
		t.Fatal("flush left state behind")
	}
}

func TestInfo(t *testing.T) {
	s := memStore(t, nil)
	s.Set("a", "1")
	info := s.Info()
	if info["keys"] != "1" || info["aof"] != "off" || info["expiry_mode"] != "lazy" {
		t.Fatalf("info = %v", info)
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := s.Set("k", "v"); err == nil {
		t.Fatal("Set after close should fail")
	}
	if _, err := s.Del("k"); err == nil {
		t.Fatal("Del after close should fail")
	}
	if err := s.FlushAll(); err == nil {
		t.Fatal("FlushAll after close should fail")
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	s := memStore(t, nil)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%50)
				switch i % 4 {
				case 0, 1:
					if err := s.Set(k, "v"); err != nil {
						t.Error(err)
						return
					}
				case 2:
					s.Get(k)
				case 3:
					if _, err := s.Del(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Internal key index must be consistent with the dict.
	n := 0
	s.ScanChunk(0, math.MaxInt, func(string, string, time.Time) bool { n++; return true })
	if n != s.DBSize() {
		t.Fatalf("ScanChunk saw %d keys, DBSize = %d", n, s.DBSize())
	}
}

// TestStoreMatchesModelProperty runs random command sequences against the
// store and a plain map-based model and checks they agree.
func TestStoreMatchesModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sim := clock.NewSim(time.Time{})
		s, err := Open(Config{Clock: sim})
		if err != nil {
			return false
		}
		defer s.Close()
		type mval struct {
			v   string
			exp time.Time
		}
		model := map[string]mval{}
		expireModel := func(now time.Time) {
			for k, m := range model {
				if !m.exp.IsZero() && !m.exp.After(now) {
					delete(model, k)
				}
			}
		}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%d", r.Intn(20))
			switch r.Intn(6) {
			case 0, 1:
				v := fmt.Sprintf("v%d", r.Intn(1000))
				s.Set(k, v)
				model[k] = mval{v: v}
			case 2:
				v := fmt.Sprintf("v%d", r.Intn(1000))
				exp := sim.Now().Add(time.Duration(r.Intn(10)+1) * time.Second)
				s.SetWithExpiry(k, v, exp)
				model[k] = mval{v: v, exp: exp}
			case 3:
				s.Del(k)
				delete(model, k)
			case 4:
				sim.Advance(time.Duration(r.Intn(5)) * time.Second)
				expireModel(sim.Now())
			case 5:
				expireModel(sim.Now())
				got, ok := s.Get(k)
				m, wantOK := model[k]
				if ok != wantOK || (ok && got != m.v) {
					t.Logf("seed %d step %d key %s: store=(%q,%v) model=(%q,%v)",
						seed, i, k, got, ok, m.v, wantOK)
					return false
				}
			}
		}
		// Final full comparison.
		expireModel(sim.Now())
		live := 0
		okAll := true
		s.ScanChunk(0, math.MaxInt, func(k, v string, _ time.Time) bool {
			live++
			if m, ok := model[k]; !ok || m.v != v {
				okAll = false
			}
			return true
		})
		return okAll && live == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAOFPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.aof")
	sim := clock.NewSim(time.Time{})
	s, err := Open(Config{Clock: sim, AOFPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Set("a", "1")
	s.SetWithExpiry("b", "2", sim.Now().Add(time.Hour))
	s.Set("c", "3")
	s.Del("c")
	s.ExpireAt("a", sim.Now().Add(2*time.Hour))
	s.Persist("a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Clock: sim, AOFPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("a"); !ok || v != "1" {
		t.Fatalf("a = %q %v", v, ok)
	}
	if d, ok := s2.TTL("a"); !ok || d != 0 {
		t.Fatalf("a TTL = %v %v, want persisted", d, ok)
	}
	if d, ok := s2.TTL("b"); !ok || d != time.Hour {
		t.Fatalf("b TTL = %v %v", d, ok)
	}
	if s2.Exists("c") {
		t.Fatal("deleted key resurrected")
	}
}

func TestAOFFlushAllReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.aof")
	s, err := Open(Config{AOFPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Set("a", "1")
	s.FlushAll()
	s.Set("b", "2")
	s.Close()
	s2, err := Open(Config{AOFPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Exists("a") || !s2.Exists("b") {
		t.Fatal("FLUSHALL replay wrong")
	}
}

func TestAOFEncrypted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.aof")
	key := securefs.Key("kv")
	s, err := Open(Config{AOFPath: path, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	s.Set("secret-key", "secret-value")
	s.Close()
	// Wrong key fails replay.
	if _, err := Open(Config{AOFPath: path, EncryptionKey: securefs.Key("wrong")}); err == nil {
		t.Fatal("wrong key should fail to open")
	}
	// Right key restores.
	s2, err := Open(Config{AOFPath: path, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("secret-key"); !ok || v != "secret-value" {
		t.Fatalf("restore = %q %v", v, ok)
	}
}

func TestAOFLogsReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.aof")
	s, err := Open(Config{AOFPath: path, LogReads: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Set("k", "v")
	s.Get("k")
	s.Get("nope")
	s.Scan(0, 10)
	s.ScanChunk(0, math.MaxInt, func(string, string, time.Time) bool { return true })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// 1 SET + 2 GET + 2 SCAN = 5 frames.
	n, err := securefs.CountFrames(path, securefs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("AOF frames = %d, want 5", n)
	}
	// Reads must replay as no-ops.
	s2, err := Open(Config{AOFPath: path, LogReads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("k"); !ok || v != "v" {
		t.Fatalf("replay with reads = %q %v", v, ok)
	}
}

func TestLogReadsRequiresAOF(t *testing.T) {
	if _, err := Open(Config{LogReads: true}); err == nil {
		t.Fatal("LogReads without AOF should fail")
	}
}

func TestAOFSizeGrowsAndRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.aof")
	s, err := Open(Config{AOFPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Set("hot", fmt.Sprintf("v%d", i)) // same key overwritten 100×
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
	if v, ok := s.Get("hot"); !ok || v != "v99" {
		t.Fatalf("post-rewrite value = %q %v", v, ok)
	}
	s.Close()
	// Rewritten AOF must replay correctly.
	s2, err := Open(Config{AOFPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("hot"); !ok || v != "v99" {
		t.Fatalf("replay after rewrite = %q %v", v, ok)
	}
}

func TestRewriteWithoutAOFFails(t *testing.T) {
	s := memStore(t, nil)
	if err := s.Rewrite(); err == nil {
		t.Fatal("Rewrite without AOF should fail")
	}
}

func TestRewritePreservesEncryption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.aof")
	key := securefs.Key("rw")
	s, err := Open(Config{AOFPath: path, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(time.Time{})
	_ = sim
	s.Set("a", "1")
	s.Set("a", "2")
	if err := s.Rewrite(); err != nil {
		t.Fatal(err)
	}
	s.Set("b", "3")
	s.Close()
	s2, err := Open(Config{AOFPath: path, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := s2.Get("a"); v != "2" {
		t.Fatalf("a = %q", v)
	}
	if v, _ := s2.Get("b"); v != "3" {
		t.Fatalf("b = %q", v)
	}
}

func TestAOFCommandCodec(t *testing.T) {
	cases := [][]string{
		{"SET", "k", "v"},
		{"SETEX", "k", "v", "12345"},
		{"DEL", "k"},
		{"FLUSHALL"},
		{"GET", ""},
		{"SET", "k with spaces", "value;with;semis\nand\tnewlines"},
	}
	var buf []byte
	for _, args := range cases {
		buf = encodeCommand(buf, args...)
		got, err := decodeCommand(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", args, err)
		}
		if len(got) != len(args) {
			t.Fatalf("arity %d != %d", len(got), len(args))
		}
		for i := range args {
			if got[i] != args[i] {
				t.Fatalf("arg %d = %q, want %q", i, got[i], args[i])
			}
		}
	}
}

func TestAOFCommandCodecErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // absurd argc
		append(encodeCommand(nil, "SET", "k", "v"), 0x99),            // trailing bytes
		{2, 5, 'a'}, // truncated arg
	}
	for i, p := range bad {
		if _, err := decodeCommand(p); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func BenchmarkSetNoAOF(b *testing.B) {
	s, _ := Open(Config{})
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(fmt.Sprintf("k%d", i%100000), "value-payload-1234567890")
	}
}

func BenchmarkGetNoAOF(b *testing.B) {
	s, _ := Open(Config{})
	defer s.Close()
	for i := 0; i < 100000; i++ {
		s.Set(fmt.Sprintf("k%d", i), "value-payload-1234567890")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get(fmt.Sprintf("k%d", i%100000))
	}
}

func BenchmarkGetWithReadLogging(b *testing.B) {
	s, _ := Open(Config{AOFPath: filepath.Join(b.TempDir(), "a.aof"), AOFSync: FsyncEverySec, LogReads: true})
	defer s.Close()
	for i := 0; i < 100000; i++ {
		s.Set(fmt.Sprintf("k%d", i), "value-payload-1234567890")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get(fmt.Sprintf("k%d", i%100000))
	}
}

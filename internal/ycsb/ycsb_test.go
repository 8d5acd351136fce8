package ycsb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/relstore"
	"repro/internal/securefs"
	"repro/internal/transit"
)

// memKV is a trivial reference binding for executor tests.
type memKV struct {
	mu sync.Mutex
	m  map[string]string
}

func newMemKV() *memKV { return &memKV{m: make(map[string]string)} }

func (k *memKV) Insert(key, value string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.m[key] = value
	return nil
}

func (k *memKV) Update(key, value string) error { return k.Insert(key, value) }

func (k *memKV) Read(key string) (string, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.m[key]
	if !ok {
		return "", ErrNotFound
	}
	return v, nil
}

func (k *memKV) Scan(startIdx int64, count int) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if count > len(k.m) {
		count = len(k.m)
	}
	return count, nil
}

func TestWorkloadDefinitionsMatchTable2(t *testing.T) {
	ws := Workloads()
	if len(ws) != 6 {
		t.Fatalf("workloads = %d", len(ws))
	}
	check := func(letter string, ops []Op, weights []float64, d RequestDist) {
		w := ws[letter]
		if len(w.Ops) != len(ops) {
			t.Fatalf("%s ops = %v", letter, w.Ops)
		}
		for i := range ops {
			if w.Ops[i] != ops[i] || w.Weights[i] != weights[i] {
				t.Fatalf("%s mix = %v %v", letter, w.Ops, w.Weights)
			}
		}
		if w.Dist != d {
			t.Fatalf("%s dist = %v", letter, w.Dist)
		}
	}
	check("A", []Op{OpRead, OpUpdate}, []float64{50, 50}, DistZipfian)
	check("B", []Op{OpRead, OpUpdate}, []float64{95, 5}, DistZipfian)
	check("C", []Op{OpRead}, []float64{100}, DistZipfian)
	check("D", []Op{OpRead, OpInsert}, []float64{95, 5}, DistLatest)
	check("E", []Op{OpScan, OpInsert}, []float64{95, 5}, DistZipfian)
	check("F", []Op{OpReadModifyWrite}, []float64{100}, DistZipfian)
	if ws["E"].MaxScanLength != 100 {
		t.Fatalf("E scan length = %d", ws["E"].MaxScanLength)
	}
	if got := WorkloadLetters(); len(got) != 6 || got[0] != "A" || got[5] != "F" {
		t.Fatalf("letters = %v", got)
	}
}

func TestLoadInsertsExactCount(t *testing.T) {
	kv := newMemKV()
	run, err := Load(kv, Config{Records: 500, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(kv.m) != 500 {
		t.Fatalf("records = %d", len(kv.m))
	}
	if run.Op("INSERT").OK() != 500 {
		t.Fatalf("insert count = %d", run.Op("INSERT").OK())
	}
	if run.TotalErrors() != 0 {
		t.Fatalf("errors = %d", run.TotalErrors())
	}
}

func TestRunAllWorkloadsOnMemKV(t *testing.T) {
	for _, letter := range WorkloadLetters() {
		t.Run(letter, func(t *testing.T) {
			kv := newMemKV()
			cfg := Config{Records: 200, Operations: 1000, Threads: 4, Seed: 7}
			if _, err := Load(kv, cfg); err != nil {
				t.Fatal(err)
			}
			run, err := Run(kv, letter, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := run.TotalOps(); got < 1000 {
				t.Fatalf("ops = %d, want >= 1000", got)
			}
			if run.TotalErrors() != 0 {
				t.Fatalf("errors = %d\n%s", run.TotalErrors(), run.Summary())
			}
			if run.Throughput() <= 0 {
				t.Fatal("throughput not positive")
			}
		})
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(newMemKV(), "Z", Config{}); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestRunPropagatesEngineErrors(t *testing.T) {
	kv := &failingKV{}
	if _, err := Run(kv, "A", Config{Records: 10, Operations: 100, Threads: 2}); err == nil {
		t.Fatal("engine error should propagate")
	}
}

type failingKV struct{}

var errBoom = errors.New("boom")

func (f *failingKV) Insert(string, string) error  { return errBoom }
func (f *failingKV) Update(string, string) error  { return errBoom }
func (f *failingKV) Read(string) (string, error)  { return "", errBoom }
func (f *failingKV) Scan(int64, int) (int, error) { return 0, errBoom }

func TestKVStoreBindingAllWorkloads(t *testing.T) {
	s, err := kvstore.Open(kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := NewKVStoreBinding(s)
	cfg := Config{Records: 300, Operations: 600, Threads: 4, Seed: 3}
	if _, err := Load(b, cfg); err != nil {
		t.Fatal(err)
	}
	for _, letter := range WorkloadLetters() {
		run, err := Run(b, letter, cfg)
		if err != nil {
			t.Fatalf("%s: %v", letter, err)
		}
		if run.TotalErrors() != 0 {
			t.Fatalf("%s errors: %s", letter, run.Summary())
		}
	}
}

func TestRelStoreBindingAllWorkloads(t *testing.T) {
	db, err := relstore.Open(relstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b, err := NewRelStoreBinding(db, "usertable")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Records: 300, Operations: 600, Threads: 4, Seed: 3}
	if _, err := Load(b, cfg); err != nil {
		t.Fatal(err)
	}
	for _, letter := range WorkloadLetters() {
		run, err := Run(b, letter, cfg)
		if err != nil {
			t.Fatalf("%s: %v", letter, err)
		}
		if run.TotalErrors() != 0 {
			t.Fatalf("%s errors: %s", letter, run.Summary())
		}
	}
}

func TestRelStoreBindingReadUpdateMissing(t *testing.T) {
	db, _ := relstore.Open(relstore.Config{})
	defer db.Close()
	b, err := NewRelStoreBinding(db, "usertable")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read missing = %v", err)
	}
	if err := b.Update("missing", "v"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing = %v", err)
	}
}

func TestKVStoreBindingTTLFunc(t *testing.T) {
	s, _ := kvstore.Open(kvstore.Config{})
	defer s.Close()
	b := NewKVStoreBinding(s)
	var calls int
	b.SetTTLFunc(func() (int64, bool) {
		calls++
		return 4102444800000000000, true // year 2100
	})
	if err := b.Insert("k", "v"); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("ttl func calls = %d", calls)
	}
	if s.ExpiresSize() != 1 {
		t.Fatalf("expires = %d", s.ExpiresSize())
	}
}

func TestEncryptedKVRoundTrips(t *testing.T) {
	pipe, err := transit.NewPipe(securefs.Key("ycsb"))
	if err != nil {
		t.Fatal(err)
	}
	e := NewWireKV(newMemKV(), pipe)
	if err := e.Insert("k", "v"); err != nil {
		t.Fatal(err)
	}
	v, err := e.Read("k")
	if err != nil || v != "v" {
		t.Fatalf("read = %q %v", v, err)
	}
	if err := e.Update("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Read("k"); v != "v2" {
		t.Fatalf("after update = %q", v)
	}
	if _, err := e.Read("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing = %v", err)
	}
	n, err := e.Scan(0, 1)
	if err != nil || n != 1 {
		t.Fatalf("scan = %d %v", n, err)
	}
}

func TestEncryptedKVUnderConcurrency(t *testing.T) {
	pipe, err := transit.NewPipe(securefs.Key("ycsb2"))
	if err != nil {
		t.Fatal(err)
	}
	e := NewWireKV(newMemKV(), pipe)
	cfg := Config{Records: 100, Operations: 500, Threads: 8, Seed: 5}
	if _, err := Load(e, cfg); err != nil {
		t.Fatal(err)
	}
	run, err := Run(e, "A", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalErrors() != 0 {
		t.Fatalf("errors: %s", run.Summary())
	}
}

func TestKeyFormatting(t *testing.T) {
	if Key(0) != "user000000000000" {
		t.Fatalf("Key(0) = %q", Key(0))
	}
	if Key(42) >= Key(43) {
		t.Fatal("keys not ordered")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpRead: "READ", OpUpdate: "UPDATE", OpInsert: "INSERT",
		OpScan: "SCAN", OpReadModifyWrite: "RMW", Op(42): "Op(42)",
	} {
		if op.String() != want {
			t.Fatalf("%d.String = %q", int(op), op.String())
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Records != 10000 || c.Operations != 10000 || c.Threads != 16 || c.ValueSize != 100 || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	c2 := Config{Records: 5, Operations: 6, Threads: 7, ValueSize: 8, Seed: 9}.WithDefaults()
	if c2.Records != 5 || c2.Operations != 6 || c2.Threads != 7 || c2.ValueSize != 8 || c2.Seed != 9 {
		t.Fatalf("overrides lost: %+v", c2)
	}
}

func TestWorkloadDRunGrowsKeySpace(t *testing.T) {
	kv := newMemKV()
	cfg := Config{Records: 100, Operations: 2000, Threads: 2, Seed: 11}
	if _, err := Load(kv, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(kv, "D", cfg); err != nil {
		t.Fatal(err)
	}
	if len(kv.m) <= 100 {
		t.Fatalf("workload D inserted nothing: %d records", len(kv.m))
	}
	// Inserted keys continue the sequence.
	if _, ok := kv.m[Key(100)]; !ok {
		t.Fatal("first post-load key missing")
	}
}

func BenchmarkWorkloadAOnKVStore(b *testing.B) {
	s, _ := kvstore.Open(kvstore.Config{})
	defer s.Close()
	bind := NewKVStoreBinding(s)
	cfg := Config{Records: 10000, Operations: 10000, Threads: 8, Seed: 1}
	if _, err := Load(bind, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Operations = 5000
		if _, err := Run(bind, "A", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt import if unused in some build configs

func TestRunMaxTimeStopsEarly(t *testing.T) {
	kv := newMemKV()
	cfg := Config{Records: 100, Operations: 100_000_000, MaxTime: 50 * time.Millisecond, Threads: 4, Seed: 9}
	if _, err := Load(kv, Config{Records: 100, Threads: 2}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	run, err := Run(kv, "C", cfg)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("run did not stop at deadline: %v", elapsed)
	}
	if run.TotalOps() == 0 {
		t.Fatal("no ops executed before deadline")
	}
	if run.TotalOps() >= 100_000_000 {
		t.Fatal("op budget exhausted, deadline never applied")
	}
}

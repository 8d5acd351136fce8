package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/securefs"
)

func openTemp(t *testing.T, policy SyncPolicy) (*WAL, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := Open(Config{Path: path, Policy: policy, Clock: clock.NewSim(time.Time{})}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, path
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	w, _ := openTemp(t, SyncNever)
	var prev uint64
	for i := 0; i < 100; i++ {
		lsn, err := w.Append(RecInsert, []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= prev {
			t.Fatalf("lsn %d not > %d", lsn, prev)
		}
		prev = lsn
	}
	if w.NextLSN() != prev+1 {
		t.Fatalf("NextLSN = %d", w.NextLSN())
	}
}

func TestReplayRoundTrip(t *testing.T) {
	w, path := openTemp(t, SyncOnCommit)
	want := []struct {
		t RecordType
		p string
	}{
		{RecInsert, "t\x00k1\x00row1"},
		{RecUpdate, "t\x00k1\x00row2"},
		{RecDelete, "t\x00k1"},
		{RecCheckpoint, "cp"},
	}
	for _, r := range want {
		if _, err := w.Append(r.t, []byte(r.p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	last, err := Replay(path, nil, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 4 {
		t.Fatalf("last LSN = %d", last)
	}
	if len(got) != len(want) {
		t.Fatalf("records = %d", len(got))
	}
	for i, r := range got {
		if r.Type != want[i].t || string(r.Payload) != want[i].p {
			t.Fatalf("record %d = %v %q", i, r.Type, r.Payload)
		}
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d LSN = %d", i, r.LSN)
		}
	}
}

func TestReplayContinuesLSNSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq.wal")
	w, err := Open(Config{Path: path}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(RecInsert, []byte("a"))
	w.Append(RecInsert, []byte("b"))
	w.Close()

	last, err := Replay(path, nil, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Config{Path: path}, last)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	lsn, err := w2.Append(RecInsert, []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("continued LSN = %d, want 3", lsn)
	}
}

func TestTornTailRecoversPrefix(t *testing.T) {
	w, path := openTemp(t, SyncOnCommit)
	w.Append(RecInsert, []byte("keep-1"))
	w.Append(RecInsert, []byte("keep-2"))
	w.Append(RecInsert, []byte("torn"))
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-2], 0o600); err != nil {
		t.Fatal(err)
	}
	var got []string
	last, err := Replay(path, nil, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	})
	if err != nil {
		t.Fatalf("torn tail should not error: %v", err)
	}
	if last != 2 || len(got) != 2 {
		t.Fatalf("recovered %d records, last=%d", len(got), last)
	}
}

func TestCorruptCRCStopsReplay(t *testing.T) {
	w, path := openTemp(t, SyncOnCommit)
	w.Append(RecInsert, []byte("good"))
	w.Append(RecInsert, []byte("bad-crc"))
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01 // flip a payload byte; frame still parses
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	var got []string
	last, err := Replay(path, nil, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	})
	if err != nil {
		t.Fatalf("crc-corrupt tail should recover prefix: %v", err)
	}
	if len(got) != 1 || last != 1 {
		t.Fatalf("recovered %v last=%d", got, last)
	}
}

func TestEncryptedWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "enc.wal")
	key := securefs.Key("wal")
	w, err := Open(Config{Path: path, Key: key, Policy: SyncOnCommit}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(RecInsert, []byte("secret-row-contents"))
	w.Close()
	raw, _ := os.ReadFile(path)
	if bytes.Contains(raw, []byte("secret-row-contents")) {
		t.Fatal("plaintext row in encrypted WAL")
	}
	n := 0
	if _, err := Replay(path, key, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("records = %d", n)
	}
}

func TestReplayCallbackErrorPropagates(t *testing.T) {
	w, path := openTemp(t, SyncOnCommit)
	w.Append(RecInsert, []byte("x"))
	w.Close()
	sentinel := fmt.Errorf("boom")
	if _, err := Replay(path, nil, func(Record) error { return sentinel }); err == nil {
		t.Fatal("callback error should propagate")
	}
}

func TestAppendAfterClose(t *testing.T) {
	w, _ := openTemp(t, SyncNever)
	w.Close()
	if _, err := w.Append(RecInsert, []byte("x")); err == nil {
		t.Fatal("append after close should fail")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestBatchedSyncPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batched.wal")
	sim := clock.NewSim(time.Time{})
	w, err := Open(Config{Path: path, Policy: SyncBatched, Clock: sim}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sim.Advance(300 * time.Millisecond)
		if _, err := w.Append(RecInsert, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := Replay(path, nil, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("records = %d", n)
	}
}

// TestIdleBatchedWALFlush pins SyncBatched's idle flush: an acknowledged
// erasure reaches disk within a WAL-clock second even when no later
// Append comes to sync it.
func TestIdleBatchedWALFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idle.wal")
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	w, err := Open(Config{Path: path, Policy: SyncBatched, Clock: sim}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn, err := w.Append(RecDelete, EncodeKV("records", "erase-me", nil))
	if err != nil {
		t.Fatal(err)
	}
	// Only the clock moves from here. The flush timer is armed
	// asynchronously, so step a second at a time until it has fired.
	deadline := time.Now().Add(2 * time.Second)
	for w.DurableLSN() < lsn && time.Now().Before(deadline) {
		sim.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}
	if got := w.DurableLSN(); got < lsn {
		t.Errorf("idle WAL was never synced (durable LSN %d < %d)", got, lsn)
	}
	deletes := 0
	if _, err := Replay(path, nil, func(r Record) error {
		if r.Type == RecDelete {
			deletes++
		}
		return nil
	}); err != nil {
		t.Fatalf("read WAL from disk: %v", err)
	}
	if deletes != 1 {
		t.Fatalf("acknowledged delete is not in the on-disk WAL after an idle second (%d found)", deletes)
	}
}

// TestCloseSyncsBatchedWAL: a clean Close makes every appended record
// durable, so a power loss after shutdown loses no acknowledged write
// even under SyncBatched.
func TestCloseSyncsBatchedWAL(t *testing.T) {
	w, _ := openTemp(t, SyncBatched)
	lsn, err := w.Append(RecDelete, EncodeKV("records", "erase-me", nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got != lsn {
		t.Fatalf("durable LSN after Close = %d, want %d", got, lsn)
	}
}

func TestSizeGrows(t *testing.T) {
	w, _ := openTemp(t, SyncNever)
	s0, err := w.Size()
	if err != nil {
		t.Fatal(err)
	}
	w.Append(RecInsert, bytes.Repeat([]byte("x"), 1024))
	s1, err := w.Size()
	if err != nil {
		t.Fatal(err)
	}
	if s1 <= s0 {
		t.Fatalf("size did not grow: %d -> %d", s0, s1)
	}
}

func TestKVPayloadCodec(t *testing.T) {
	cases := []struct {
		table, key string
		row        []byte
	}{
		{"records", "k1", []byte("row-bytes")},
		{"t", "", nil},
		{"records", "key with spaces", []byte{0x01, 0x02, 0xff}},
	}
	for _, c := range cases {
		p := EncodeKV(c.table, c.key, c.row)
		table, key, row, err := DecodeKV(p)
		if err != nil {
			t.Fatal(err)
		}
		if table != c.table || key != c.key || !bytes.Equal(row, c.row) {
			t.Fatalf("roundtrip = %q %q %q", table, key, row)
		}
	}
}

func TestKVPayloadDecodeErrors(t *testing.T) {
	if _, _, _, err := DecodeKV([]byte("no-separators")); err == nil {
		t.Fatal("expected error")
	}
	if _, _, _, err := DecodeKV([]byte("table\x00only-one")); err == nil {
		t.Fatal("expected error")
	}
}

// TestConcurrentAppends also runs SyncBatched under a running clock, so
// its idle flusher syncs beside the appenders and Close stops it
// mid-flight.
func TestConcurrentAppends(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNever, SyncBatched} {
		path := filepath.Join(t.TempDir(), "test.wal")
		sim := clock.NewSim(time.Time{})
		w, err := Open(Config{Path: path, Policy: policy, Clock: sim}, 0)
		if err != nil {
			t.Fatal(err)
		}
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-stop:
					return
				default:
					sim.Advance(100 * time.Millisecond)
					runtime.Gosched()
				}
			}
		}()
		var wg sync.WaitGroup
		const workers, per = 8, 100
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < per; j++ {
					if _, err := w.Append(RecInsert, []byte("c")); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		<-stopped
		seen := map[uint64]bool{}
		if _, err := Replay(path, nil, func(r Record) error {
			if seen[r.LSN] {
				return fmt.Errorf("duplicate LSN %d", r.LSN)
			}
			seen[r.LSN] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != workers*per {
			t.Fatalf("policy %d: records = %d", policy, len(seen))
		}
	}
}

func TestRecordTypeString(t *testing.T) {
	for rt, want := range map[RecordType]string{
		RecInsert: "insert", RecUpdate: "update", RecDelete: "delete",
		RecCheckpoint: "checkpoint", RecordType(99): "RecordType(99)",
	} {
		if rt.String() != want {
			t.Fatalf("%d.String() = %q", byte(rt), rt.String())
		}
	}
}

func BenchmarkAppendSyncNever(b *testing.B) {
	w, err := Open(Config{Path: filepath.Join(b.TempDir(), "b.wal"), Policy: SyncNever}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := EncodeKV("records", "key-123456", bytes.Repeat([]byte("r"), 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(RecInsert, payload); err != nil {
			b.Fatal(err)
		}
	}
}

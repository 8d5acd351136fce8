package wal

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
)

// walGoldenSHA256 is the SHA-256 of the rotated-out segment followed by
// the live file after TestWALGoldenBytes' record stream, unencrypted. The
// record format and the LSN sequence across a Rotate are what recovery
// and every checkpoint cut rest on; this constant catches any drift in
// either, under every sync policy.
const walGoldenSHA256 = "8b93b5c8ecd0bbb9b4b3096b2c2290d91137987a0811d857cec6489e6d8e6baf"

// TestWALGoldenBytes: one fixed record stream with a Rotate in the
// middle writes the same bytes under SyncOnCommit, SyncBatched and
// SyncNever, and those bytes match the golden hash.
func TestWALGoldenBytes(t *testing.T) {
	stream := func(w *WAL, from, to int) error {
		types := []RecordType{RecInsert, RecUpdate, RecDelete, RecCheckpoint}
		for i := from; i < to; i++ {
			rt := types[i%len(types)]
			payload := EncodeKV("records", fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("row-%03d", i)))
			if rt == RecDelete {
				payload = EncodeKV("records", fmt.Sprintf("key-%03d", i), nil)
			}
			lsn, err := w.Append(rt, payload)
			if err != nil {
				return err
			}
			if lsn != uint64(i+1) {
				return fmt.Errorf("record %d got LSN %d", i, lsn)
			}
			if err := w.WaitDurable(lsn); err != nil {
				return err
			}
		}
		return nil
	}
	for _, policy := range []SyncPolicy{SyncOnCommit, SyncBatched, SyncNever} {
		path := filepath.Join(t.TempDir(), "golden.wal")
		w, err := Open(Config{Path: path, Policy: policy, Clock: clock.NewSim(time.Unix(1_500_000_000, 0))}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream(w, 0, 30); err != nil {
			t.Fatal(err)
		}
		cut, err := w.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if cut != 30 {
			t.Fatalf("policy %d: Rotate cut = %d, want 30", policy, cut)
		}
		if err := stream(w, 30, 50); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		old, err := os.ReadFile(path + RotatedSuffix)
		if err != nil {
			t.Fatal(err)
		}
		live, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(old)
		h.Write(live)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != walGoldenSHA256 {
			t.Errorf("policy %d: WAL bytes drifted: sha256 %s, want %s (old %d + live %d bytes)",
				policy, got, walGoldenSHA256, len(old), len(live))
		}
	}
}

package ycsb

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestOpenFeatureMatrix loads and runs every engine × feature set and
// checks what reaches disk: the redis AOF and the postgres csvlog exist
// iff Log is on, and under Encrypt no file holds a loaded key in
// plaintext (without Encrypt the logs do, which shows the check can see
// one).
func TestOpenFeatureMatrix(t *testing.T) {
	sets := map[string]Features{
		"none":    {},
		"encrypt": {Encrypt: true},
		"ttl":     {TTL: true},
		"log":     {Log: true},
		"all":     {Encrypt: true, TTL: true, Log: true},
	}
	logFile := map[string]string{"redis": "redis.aof", "postgres": "pg-csvlog.000001.seg"}
	for _, engine := range []string{"redis", "postgres"} {
		for name, f := range sets {
			t.Run(engine+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				kv, closeAll, err := Open(engine, dir, f)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Records: 200, Operations: 400, Threads: 4, Seed: 7}
				if _, err := Load(kv, cfg); err != nil {
					t.Fatal(err)
				}
				if _, err := Run(kv, "A", cfg); err != nil {
					t.Fatal(err)
				}
				if err := closeAll(); err != nil {
					t.Fatal(err)
				}

				_, err = os.Stat(filepath.Join(dir, logFile[engine]))
				if exists := err == nil; exists != f.Log {
					t.Fatalf("%s exists=%v with Log=%v", logFile[engine], exists, f.Log)
				}
				var plain []string
				err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
					if err != nil || d.IsDir() {
						return err
					}
					b, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					for i := int64(0); i < int64(cfg.Records); i++ {
						if bytes.Contains(b, []byte(Key(i))) {
							plain = append(plain, d.Name())
							break
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if f.Encrypt && len(plain) > 0 {
					t.Fatalf("loaded keys in plaintext under Encrypt: %v", plain)
				}
				if !f.Encrypt && f.Log && len(plain) == 0 {
					t.Fatal("no plaintext key in an unencrypted log: the check sees nothing")
				}
			})
		}
	}
}

// TestOpenFailureClosesEverything makes relstore.Open fail after the
// csvlog audit trail is open (a directory sits at the WAL path) and
// checks that the trail and its writer goroutine are released.
func TestOpenFailureClosesEverything(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "pg.wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, _, err := Open("postgres", dir, Features{Log: true}); err == nil {
			t.Fatal("open over a directory at the WAL path should fail")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, baseline %d: the failed opens leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package ycsb

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/kvstore"
	"repro/internal/relstore"
	"repro/internal/securefs"
	"repro/internal/transit"
	"repro/internal/wal"
)

// Features selects which of the GDPR security features of §5 (Shah et
// al.'s storage baseline, the paper's §6.1 Figure 4) a YCSB stack runs
// with. The zero value is the no-security baseline.
type Features struct {
	// Encrypt encrypts every persisted log (AOF, WAL, csvlog) and wraps
	// each request and response in the in-transit record layer.
	Encrypt bool
	// TTL arms an expiry on every write and runs the engine's strict
	// expiry daemon, so timely deletion has keys to manage.
	TTL bool
	// Log logs every operation, reads included: the redis AOF with read
	// logging, or the postgres statement log into a csvlog audit trail.
	Log bool
}

// table is the table the postgres model's YCSB binding uses.
const table = "usertable"

// Open builds the named engine model ("redis" or "postgres") persisting
// in dir with the features in f switched on, and returns the client-side
// KV — every operation crosses the wire boundary, encrypted under
// f.Encrypt — plus a function that closes everything Open opened. When
// Open fails, whatever it had opened is already closed.
func Open(engine, dir string, f Features) (KV, func() error, error) {
	var c closers
	kv, err := c.open(engine, dir, f)
	if err != nil {
		c.close()
		return nil, nil, err
	}
	return kv, c.close, nil
}

// closers holds the close functions of what Open has opened so far.
type closers []func() error

// close runs every close function, newest first, and returns the first
// error.
func (c closers) close() error {
	var first error
	for i := len(c) - 1; i >= 0; i-- {
		if err := c[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *closers) open(engine, dir string, f Features) (KV, error) {
	key := func(label string) []byte {
		if !f.Encrypt {
			return nil
		}
		return securefs.Key("ycsb/" + label)
	}
	ttlHorizon := func() (int64, bool) { return time.Now().Add(24 * time.Hour).UnixNano(), true }

	var inner KV
	switch engine {
	case "redis":
		cfg := kvstore.Config{}
		if f.Log {
			cfg.AOFPath = filepath.Join(dir, "redis.aof")
			cfg.AOFSync = kvstore.FsyncEverySec
			cfg.LogReads = true
			cfg.EncryptionKey = key("aof")
		}
		if f.TTL {
			cfg.ExpiryMode = kvstore.ExpiryStrict
		}
		s, err := kvstore.Open(cfg)
		if err != nil {
			return nil, err
		}
		*c = append(*c, s.Close)
		b := NewKVStoreBinding(s)
		if f.TTL {
			b.SetTTLFunc(ttlHorizon)
			s.StartExpiry()
		}
		inner = b

	case "postgres":
		cfg := relstore.Config{
			WALPath:       filepath.Join(dir, "pg.wal"),
			WALSync:       wal.SyncBatched,
			EncryptionKey: key("wal"),
		}
		if f.Log {
			log, err := audit.Open(audit.Config{
				Path:   filepath.Join(dir, "pg-csvlog"),
				Key:    key("csvlog"),
				Policy: audit.SyncEverySec,
			})
			if err != nil {
				return nil, err
			}
			*c = append(*c, log.Close)
			cfg.Audit = log
			cfg.LogStatements = true
		}
		db, err := relstore.Open(cfg)
		if err != nil {
			return nil, err
		}
		*c = append(*c, db.Close)
		b, err := NewRelStoreBinding(db, table)
		if err != nil {
			return nil, err
		}
		if f.TTL {
			b.SetTTLFunc(ttlHorizon)
			if err := db.StartTTLDaemon(table, "ttl", time.Second); err != nil {
				return nil, err
			}
		}
		inner = b

	default:
		return nil, fmt.Errorf("ycsb: unknown engine %q", engine)
	}
	var pipe *transit.Pipe
	if f.Encrypt {
		var err error
		if pipe, err = transit.NewPipe(securefs.Key("ycsb/transit")); err != nil {
			return nil, err
		}
	}
	return NewWireKV(inner, pipe), nil
}

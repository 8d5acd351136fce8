package ycsb

import (
	"fmt"
	"time"

	"repro/internal/kvstore"
	"repro/internal/relstore"
	"repro/internal/transit"
)

// KVStoreBinding drives the Redis-model engine.
type KVStoreBinding struct {
	Store *kvstore.Store
	// TTL, when non-zero-valued via SetTTL, arms an expiry on every
	// insert/update so the timely-deletion feature has keys to manage
	// (YCSB itself has no TTL notion).
	ttl func() (expireAt int64, ok bool)
}

// NewKVStoreBinding wraps a kvstore.Store.
func NewKVStoreBinding(s *kvstore.Store) *KVStoreBinding {
	return &KVStoreBinding{Store: s}
}

// SetTTLFunc installs a function returning the unixnano expiry for new
// writes; nil disables TTLs.
func (b *KVStoreBinding) SetTTLFunc(fn func() (int64, bool)) { b.ttl = fn }

func (b *KVStoreBinding) write(key, value string) error {
	if b.ttl != nil {
		if ns, ok := b.ttl(); ok {
			return b.Store.SetWithExpiry(key, value, time.Unix(0, ns))
		}
	}
	return b.Store.Set(key, value)
}

// Insert implements KV.
func (b *KVStoreBinding) Insert(key, value string) error { return b.write(key, value) }

// Update implements KV.
func (b *KVStoreBinding) Update(key, value string) error { return b.write(key, value) }

// Read implements KV.
func (b *KVStoreBinding) Read(key string) (string, error) {
	v, ok := b.Store.Get(key)
	if !ok {
		return "", ErrNotFound
	}
	return v, nil
}

// Scan implements KV using the store's cursor scan.
func (b *KVStoreBinding) Scan(startIdx int64, count int) (int, error) {
	size := b.Store.DBSize()
	if size == 0 {
		return 0, nil
	}
	cursor := int(startIdx % int64(size))
	keys, _ := b.Store.Scan(cursor, count)
	// Touch each scanned record like a real scan result materialization.
	n := 0
	for _, k := range keys {
		if _, ok := b.Store.Get(k); ok {
			n++
		}
	}
	return n, nil
}

// RelStoreBinding drives the PostgreSQL-model engine through a
// key/value/ttl table.
type RelStoreBinding struct {
	DB    *relstore.DB
	Table string
	// ttl, when set, supplies the expiry written with every row so the
	// timely-deletion daemon has rows to manage.
	ttl func() (expireAtNanos int64, ok bool)
}

// YCSBSchema is the table the relational binding uses. The ttl column is
// zero (never expires) unless a TTL function is installed.
func YCSBSchema(name string) relstore.Schema {
	return relstore.Schema{
		Name: name,
		Columns: []relstore.Column{
			{Name: "key", Type: relstore.TypeText},
			{Name: "field0", Type: relstore.TypeText},
			{Name: "ttl", Type: relstore.TypeTime},
		},
		PrimaryKey: "key",
	}
}

// NewRelStoreBinding wraps a relstore.DB, creating the YCSB table.
func NewRelStoreBinding(db *relstore.DB, table string) (*RelStoreBinding, error) {
	if err := db.CreateTable(YCSBSchema(table)); err != nil {
		return nil, err
	}
	if err := db.Recover(); err != nil {
		return nil, err
	}
	return &RelStoreBinding{DB: db, Table: table}, nil
}

// SetTTLFunc installs a function returning the unixnano expiry for new
// writes; nil disables TTLs.
func (b *RelStoreBinding) SetTTLFunc(fn func() (int64, bool)) { b.ttl = fn }

func (b *RelStoreBinding) rowTTL() time.Time {
	if b.ttl != nil {
		if ns, ok := b.ttl(); ok {
			return time.Unix(0, ns)
		}
	}
	return time.Time{}
}

// Insert implements KV with upsert semantics (like the engine's SET
// counterpart, and like YCSB bindings in general: back-to-back workloads
// re-insert keys a previous workload already created).
func (b *RelStoreBinding) Insert(key, value string) error {
	if err := b.DB.Insert(b.Table, relstore.Row{key, value, b.rowTTL()}); err != nil {
		return b.Update(key, value)
	}
	return nil
}

// Read implements KV.
func (b *RelStoreBinding) Read(key string) (string, error) {
	row, ok, err := b.DB.Get(b.Table, key)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", ErrNotFound
	}
	return row[1].(string), nil
}

// Update implements KV.
func (b *RelStoreBinding) Update(key, value string) error {
	ttl := b.rowTTL()
	ok, err := b.DB.UpdateFunc(b.Table, key, func(r relstore.Row) (relstore.Row, error) {
		r[1] = value
		if !ttl.IsZero() {
			r[2] = ttl
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	if !ok {
		return ErrNotFound
	}
	return nil
}

// Scan implements KV with a PK range scan.
func (b *RelStoreBinding) Scan(startIdx int64, count int) (int, error) {
	rows, err := b.DB.ScanPK(b.Table, Key(startIdx), count)
	if err != nil {
		return 0, err
	}
	return len(rows), nil
}

// WireKV models the client/server boundary every real deployment of
// these engines has: each operation is marshaled into a request frame and
// its result into a response frame (the RESP / wire-protocol cost that is
// part of the engines' baselines). With a transit pipe installed, both
// frames additionally pass through the TLS-like record layer — the
// paper's Stunnel / verify-CA SSL encryption feature.
type WireKV struct {
	Inner KV
	Pipe  *transit.Pipe // nil = plaintext framing only
}

// NewWireKV wraps inner with the wire layer; pipe may be nil.
func NewWireKV(inner KV, pipe *transit.Pipe) *WireKV {
	return &WireKV{Inner: inner, Pipe: pipe}
}

func (e *WireKV) roundTrip(req string, fn func() (string, error)) (string, error) {
	if e.Pipe == nil {
		// Plaintext framing: the request and response still cross the
		// client/server boundary as byte frames.
		wire := []byte(req)
		_ = wire
		out, err := fn()
		if err != nil {
			return "", err
		}
		resp := []byte(out)
		return string(resp), nil
	}
	var out string
	var opErr error
	_, err := e.Pipe.RoundTrip([]byte(req), func([]byte) []byte {
		out, opErr = fn()
		return []byte(out)
	})
	if opErr != nil {
		return "", opErr
	}
	if err != nil {
		return "", err
	}
	return out, nil
}

// Insert implements KV.
func (e *WireKV) Insert(key, value string) error {
	_, err := e.roundTrip("INSERT "+key+" "+value, func() (string, error) {
		return "OK", e.Inner.Insert(key, value)
	})
	return err
}

// Update implements KV.
func (e *WireKV) Update(key, value string) error {
	_, err := e.roundTrip("UPDATE "+key+" "+value, func() (string, error) {
		return "OK", e.Inner.Update(key, value)
	})
	return err
}

// Read implements KV.
func (e *WireKV) Read(key string) (string, error) {
	return e.roundTrip("READ "+key, func() (string, error) {
		return e.Inner.Read(key)
	})
}

// Scan implements KV.
func (e *WireKV) Scan(startIdx int64, count int) (int, error) {
	var n int
	_, err := e.roundTrip(fmt.Sprintf("SCAN %d %d", startIdx, count), func() (string, error) {
		var err error
		n, err = e.Inner.Scan(startIdx, count)
		return fmt.Sprintf("%d", n), err
	})
	return n, err
}

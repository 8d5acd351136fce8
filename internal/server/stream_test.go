package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/gdpr"
	"repro/internal/obs"
	"repro/internal/wire"
)

// These tests exercise the v4 streaming cursor exchange at the wire
// level: SELECT-STREAM opens a server-side cursor bound to the session,
// STREAM-NEXT pulls one chunk per exchange, STREAM-CLOSE (or the
// session ending, however it ends) releases it. The hygiene properties
// — cap, reap on disconnect, unknown-cursor Done — are the regression
// bar for "one connection cannot pin unbounded server-side state".

// loadServerRecords creates n controller records through the DB.
func loadServerRecords(t *testing.T, db core.DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.CreateRecord(core.ControllerActor(), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamExchangeRoundTrip drives one full stream over a raw
// connection: every record comes back exactly once, no chunk exceeds
// the requested size, and the final exchange answers Done.
func TestStreamExchangeRoundTrip(t *testing.T) {
	db := openTestDB(t)
	const n = 25
	loadServerRecords(t, db, n)
	_, addr := startServer(t, db, Config{})

	c := dialRaw(t, addr)
	if _, ok := c.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	const chunk = 4
	c.send(&wire.SelectStream{Actor: core.ControllerActor(), Sel: gdpr.ByUser("neo"), Chunk: chunk})
	opened, ok := c.recv().(*wire.StreamOpened)
	if !ok {
		t.Fatalf("SELECT-STREAM not answered with StreamOpened")
	}
	seen := map[string]bool{}
	for {
		c.send(&wire.StreamNext{ID: opened.ID})
		m, ok := c.recv().(*wire.StreamChunk)
		if !ok {
			t.Fatalf("STREAM-NEXT answered with %T", m)
		}
		if len(m.Recs) > chunk {
			t.Fatalf("chunk of %d records exceeds requested %d", len(m.Recs), chunk)
		}
		for _, enc := range m.Recs {
			rec, err := gdpr.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if seen[rec.Key] {
				t.Fatalf("record %q delivered twice", rec.Key)
			}
			seen[rec.Key] = true
		}
		if m.Done {
			break
		}
	}
	if len(seen) != n {
		t.Fatalf("stream delivered %d records, want %d", len(seen), n)
	}
	// The cursor is gone: another StreamNext answers Done, not an error.
	c.send(&wire.StreamNext{ID: opened.ID})
	if m, ok := c.recv().(*wire.StreamChunk); !ok || !m.Done {
		t.Fatalf("StreamNext after Done answered %v", m)
	}
}

// TestStreamCursorsReapedOnDisconnect is the leak regression test: a
// client that opens cursors and vanishes without closing them must not
// leave server-side cursor state behind — the session reaps them and
// the server_cursors_open gauge returns to zero.
func TestStreamCursorsReapedOnDisconnect(t *testing.T) {
	reg := obs.NewRegistry(nil)
	db := openTestDB(t)
	loadServerRecords(t, db, 40)
	_, addr := startServer(t, db, Config{Obs: reg})

	c := dialRaw(t, addr)
	if _, ok := c.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	const cursors = 5
	for i := 0; i < cursors; i++ {
		c.send(&wire.SelectStream{Actor: core.ControllerActor(), Sel: gdpr.ByUser("neo"), Chunk: 2})
		if _, ok := c.recv().(*wire.StreamOpened); !ok {
			t.Fatalf("cursor %d not opened", i)
		}
	}
	if got := reg.Snapshot(false).Gauge("server_cursors_open"); got != cursors {
		t.Fatalf("server_cursors_open = %d with %d cursors held", got, cursors)
	}
	// Vanish mid-stream: no StreamClose, just a dead TCP connection.
	c.nc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := reg.Snapshot(false).Gauge("server_cursors_open"); got == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server_cursors_open still %d after disconnect — cursors leaked",
				reg.Snapshot(false).Gauge("server_cursors_open"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The engine survived the reap: a fresh session streams fine.
	c2 := dialRaw(t, addr)
	if _, ok := c2.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed after reap")
	}
	c2.send(&wire.SelectStream{Actor: core.ControllerActor(), Sel: gdpr.ByUser("neo"), Chunk: 0})
	if _, ok := c2.recv().(*wire.StreamOpened); !ok {
		t.Fatal("stream after reap failed")
	}
}

// TestStreamCursorCap pins the per-session cursor cap: SELECT-STREAM
// past MaxCursors is refused with a structured error, and closing one
// cursor frees the slot.
func TestStreamCursorCap(t *testing.T) {
	db := openTestDB(t)
	loadServerRecords(t, db, 10)
	_, addr := startServer(t, db, Config{MaxCursors: 2})

	c := dialRaw(t, addr)
	if _, ok := c.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	open := func() *wire.StreamOpened {
		c.send(&wire.SelectStream{Actor: core.ControllerActor(), Sel: gdpr.ByUser("neo"), Chunk: 2})
		m, _ := c.recv().(*wire.StreamOpened)
		return m
	}
	first := open()
	if first == nil || open() == nil {
		t.Fatal("cursors under the cap refused")
	}
	c.send(&wire.SelectStream{Actor: core.ControllerActor(), Sel: gdpr.ByUser("neo"), Chunk: 2})
	if _, ok := c.recv().(*wire.ErrorResp); !ok {
		t.Fatal("third cursor accepted past MaxCursors=2")
	}
	c.send(&wire.StreamClose{ID: first.ID})
	if _, ok := c.recv().(*wire.Ack); !ok {
		t.Fatal("StreamClose not acked")
	}
	if open() == nil {
		t.Fatal("cursor slot not freed by StreamClose")
	}
}

// TestStreamRefusedByNonStreamingDB: SELECT-STREAM against a DB that is
// not a core.StreamReader is answered with a structured error — no
// cursor is opened, nothing is materialized — and the session stays
// usable for ordinary reads.
func TestStreamRefusedByNonStreamingDB(t *testing.T) {
	db := openTestDB(t)
	loadServerRecords(t, db, 3)
	reg := obs.NewRegistry(nil)
	_, addr := startServer(t, struct{ core.DB }{db}, Config{Obs: reg})

	c := dialRaw(t, addr)
	if _, ok := c.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	c.send(&wire.SelectStream{Actor: core.ControllerActor(), Sel: gdpr.ByUser("neo"), Chunk: 2})
	if m, ok := c.recv().(*wire.ErrorResp); !ok || !strings.Contains(m.Msg, "does not stream") {
		t.Fatalf("SELECT-STREAM on a non-streaming DB answered %v, want a structured error", m)
	}
	if got := reg.Snapshot(false).Gauge("server_cursors_open"); got != 0 {
		t.Fatalf("server_cursors_open = %d after a refused stream", got)
	}
	c.send(&wire.ReadData{Actor: core.ControllerActor(), Sel: gdpr.ByUser("neo")})
	if m, ok := c.recv().(*wire.Records); !ok || len(m.Recs) != 3 {
		t.Fatalf("READ-DATA after a refused stream answered %v", m)
	}
}

// TestStreamNextUnknownCursorAnswersDone: a StreamNext racing the
// stream's natural end (the server already deleted the cursor) must
// resolve cleanly as Done, never an error.
func TestStreamNextUnknownCursorAnswersDone(t *testing.T) {
	db := openTestDB(t)
	_, addr := startServer(t, db, Config{})

	c := dialRaw(t, addr)
	if _, ok := c.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	c.send(&wire.StreamNext{ID: 424242})
	m, ok := c.recv().(*wire.StreamChunk)
	if !ok || !m.Done || len(m.Recs) != 0 {
		t.Fatalf("unknown-cursor StreamNext answered %v, want empty Done chunk", m)
	}
	c.send(&wire.StreamClose{ID: 424242})
	if _, ok := c.recv().(*wire.Ack); !ok {
		t.Fatal("unknown-cursor StreamClose not acked")
	}
}

// TestStreamInterleavesWithPointReads pins the no-head-of-line-blocking
// property the cursor design exists for: point GETs pipelined between
// STREAM-NEXT exchanges on the same connection are answered in order,
// between chunks, while the stream is live.
func TestStreamInterleavesWithPointReads(t *testing.T) {
	db := openTestDB(t)
	const n = 20
	loadServerRecords(t, db, n)
	_, addr := startServer(t, db, Config{})

	c := dialRaw(t, addr)
	if _, ok := c.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	c.send(&wire.SelectStream{Actor: core.ControllerActor(), Sel: gdpr.ByUser("neo"), Chunk: 3})
	opened, ok := c.recv().(*wire.StreamOpened)
	if !ok {
		t.Fatal("stream not opened")
	}
	// One pipelined burst: chunk, GET, chunk, GET, ... The server must
	// answer strictly in order — each GET between two chunk responses.
	const rounds = 4
	for i := 0; i < rounds; i++ {
		c.send(&wire.StreamNext{ID: opened.ID})
		c.send(&wire.ReadData{Actor: core.ControllerActor(), Sel: gdpr.ByKey(testRecord(i).Key)})
	}
	streamed := 0
	for i := 0; i < rounds; i++ {
		chunkMsg, ok := c.recv().(*wire.StreamChunk)
		if !ok {
			t.Fatalf("round %d: expected StreamChunk", i)
		}
		streamed += len(chunkMsg.Recs)
		get, ok := c.recv().(*wire.Records)
		if !ok || len(get.Recs) != 1 {
			t.Fatalf("round %d: point GET not answered between chunks: %v", i, get)
		}
		rec, err := gdpr.Decode(get.Recs[0])
		if err != nil || rec.Key != testRecord(i).Key {
			t.Fatalf("round %d: GET returned %q (err %v)", i, rec.Key, err)
		}
	}
	if streamed != rounds*3 {
		t.Fatalf("streamed %d records in %d rounds, want %d", streamed, rounds, rounds*3)
	}
	c.send(&wire.StreamClose{ID: opened.ID})
	if _, ok := c.recv().(*wire.Ack); !ok {
		t.Fatal("StreamClose not acked")
	}
}

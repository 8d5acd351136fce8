package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gdpr"
	"repro/internal/wire"
)

// openTestDB builds an embedded Redis-model DB on a simulated clock.
func openTestDB(t *testing.T) core.DB {
	t.Helper()
	sim := clock.NewSim(time.Unix(1_500_000_000, 0))
	db, err := core.Open(core.Options{
		Engine:         "redis",
		Compliance:     core.Compliance{AccessControl: true, Strict: true},
		Clock:          sim,
		DisableDaemons: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func startServer(t *testing.T, db core.DB, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(db, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// rawConn speaks the wire protocol directly, bypassing the remote
// client, to exercise server-side protocol enforcement.
type rawConn struct {
	nc  net.Conn
	br  *bufio.Reader
	enc wire.Encoder
	dec wire.Decoder
	t   *testing.T
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{nc: nc, br: bufio.NewReader(nc), t: t}
}

func (c *rawConn) send(m wire.Message) {
	c.t.Helper()
	if err := c.enc.WriteMessage(c.nc, m); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawConn) recv() wire.Message {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := c.dec.ReadMessage(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	return m
}

func (c *rawConn) hello(role acl.Role, token string) wire.Message {
	c.t.Helper()
	c.send(&wire.Hello{Version: wire.ProtocolVersion, Role: role, Token: token})
	return c.recv()
}

func testRecord(i int) gdpr.Record {
	return gdpr.Record{
		Key:  fmt.Sprintf("srv-%04d", i),
		Data: fmt.Sprintf("%06d", i),
		Meta: gdpr.Metadata{
			Purposes: []string{"ads"},
			Expiry:   time.Unix(1_600_000_000, 0),
			User:     "neo",
			Source:   "test",
		},
	}
}

func TestHandshakeTokenAndVersion(t *testing.T) {
	db := openTestDB(t)
	_, addr := startServer(t, db, Config{Token: "hunter2"})

	if _, ok := dialRaw(t, addr).hello(acl.Controller, "wrong").(*wire.ErrorResp); !ok {
		t.Fatal("bad token accepted")
	}
	if _, ok := dialRaw(t, addr).hello(acl.Controller, "hunter2").(*wire.HelloOK); !ok {
		t.Fatal("good token rejected")
	}
	bad := dialRaw(t, addr)
	bad.send(&wire.Hello{Version: 99, Role: acl.Controller, Token: "hunter2"})
	if _, ok := bad.recv().(*wire.ErrorResp); !ok {
		t.Fatal("wrong protocol version accepted")
	}
}

// TestSessionRoleBinding pins the security property: a connection
// authenticated as one GDPR role cannot issue requests as another.
func TestSessionRoleBinding(t *testing.T) {
	db := openTestDB(t)
	_, addr := startServer(t, db, Config{})

	c := dialRaw(t, addr)
	if _, ok := c.hello(acl.Customer, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	// A customer session smuggling a controller actor must be refused.
	c.send(&wire.CreateRecord{Actor: core.ControllerActor(), Rec: gdpr.Encode(testRecord(1))})
	if _, ok := c.recv().(*wire.ErrorResp); !ok {
		t.Fatal("cross-role request accepted")
	}
	// The same request on a controller session succeeds.
	cc := dialRaw(t, addr)
	if _, ok := cc.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	cc.send(&wire.CreateRecord{Actor: core.ControllerActor(), Rec: gdpr.Encode(testRecord(1))})
	if _, ok := cc.recv().(*wire.Ack); !ok {
		t.Fatal("controller create failed")
	}
}

// TestPipelinedRequestsAnswerInOrder writes a burst of requests without
// reading and requires the responses to come back in request order.
func TestPipelinedRequestsAnswerInOrder(t *testing.T) {
	db := openTestDB(t)
	_, addr := startServer(t, db, Config{})

	c := dialRaw(t, addr)
	if _, ok := c.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	const n = 32
	for i := 0; i < n; i++ {
		c.send(&wire.CreateRecord{Actor: core.ControllerActor(), Rec: gdpr.Encode(testRecord(i))})
	}
	for i := 0; i < n; i++ {
		if _, ok := c.recv().(*wire.Ack); !ok {
			t.Fatalf("create %d not acked", i)
		}
	}
	// Pipelined point reads must return each key's record, in order.
	for i := 0; i < n; i++ {
		c.send(&wire.ReadData{Actor: core.ControllerActor(), Sel: gdpr.ByKey(testRecord(i).Key)})
	}
	for i := 0; i < n; i++ {
		m, ok := c.recv().(*wire.Records)
		if !ok || len(m.Recs) != 1 {
			t.Fatalf("read %d: %v", i, m)
		}
		rec, err := gdpr.Decode(m.Recs[0])
		if err != nil || rec.Key != testRecord(i).Key {
			t.Fatalf("read %d returned %q (err %v): responses out of order", i, rec.Key, err)
		}
	}
}

// slowDB delays ReadData so a drain races an in-flight request.
type slowDB struct {
	core.DB
	delay time.Duration
}

func (s *slowDB) ReadData(a acl.Actor, sel gdpr.Selector) ([]gdpr.Record, error) {
	time.Sleep(s.delay)
	return s.DB.ReadData(a, sel)
}

// TestGracefulDrainAnswersInFlight pins the shutdown contract: requests
// already received are executed and answered before the connection
// closes, and Close returns.
func TestGracefulDrainAnswersInFlight(t *testing.T) {
	db := openTestDB(t)
	if err := db.CreateRecord(core.ControllerActor(), testRecord(0)); err != nil {
		t.Fatal(err)
	}
	slow := New(&slowDB{DB: db, delay: 300 * time.Millisecond}, Config{DrainTimeout: 5 * time.Second})
	slowAddr, err := slow.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	c := dialRaw(t, slowAddr)
	if _, ok := c.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	c.send(&wire.ReadData{Actor: core.ControllerActor(), Sel: gdpr.ByKey(testRecord(0).Key)})

	var wg sync.WaitGroup
	wg.Add(1)
	closed := make(chan time.Duration, 1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond) // let the request reach the server
		start := time.Now()
		slow.Close()
		closed <- time.Since(start)
	}()
	m, ok := c.recv().(*wire.Records)
	if !ok || len(m.Recs) != 1 {
		t.Fatalf("in-flight request not answered during drain: %v", m)
	}
	wg.Wait()
	if d := <-closed; d > 4*time.Second {
		t.Fatalf("Close took %v — drain did not complete promptly", d)
	}
	// After the drain, new connections are refused.
	if _, err := net.DialTimeout("tcp", slowAddr, 500*time.Millisecond); err == nil {
		// The listener may briefly linger in TIME_WAIT accept queues; the
		// definitive check is that a handshake gets no response.
		c2 := dialRaw(t, slowAddr)
		c2.nc.SetReadDeadline(time.Now().Add(time.Second))
		if err := c2.enc.WriteMessage(c2.nc, &wire.Hello{Version: wire.ProtocolVersion, Role: acl.Controller}); err == nil {
			if _, err := c2.dec.ReadMessage(c2.br); err == nil {
				t.Fatal("server still answering after Close")
			}
		}
	}
}

// TestMalformedFrameClosesConnection: a frame error ends the session
// without taking the server down.
func TestMalformedFrameClosesConnection(t *testing.T) {
	db := openTestDB(t)
	_, addr := startServer(t, db, Config{})

	c := dialRaw(t, addr)
	if _, ok := c.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("handshake failed")
	}
	// An oversized frame header: the server must drop the connection.
	if _, err := c.nc.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.dec.ReadMessage(c.br); err == nil {
		t.Fatal("server answered a malformed frame")
	}
	// The server itself survives: a fresh connection works.
	c2 := dialRaw(t, addr)
	if _, ok := c2.hello(acl.Controller, "").(*wire.HelloOK); !ok {
		t.Fatal("server died after a malformed frame")
	}
}

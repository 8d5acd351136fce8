// Package server turns any core.DB into a network datastore speaking
// the wire protocol: a TCP listener with one handler goroutine per
// connection, request pipelining with strictly ordered responses, and
// per-connection sessions bound to a GDPR role at handshake time.
//
// The service boundary sits above the compliance middleware: the server
// executes §3.3 queries against a core.Wrap'd DB, so access control,
// redaction, strict validation and audit logging all run server-side —
// a remote client can never skip them, which is the property the
// policy-compliant-storage line of work assumes of a storage service.
// (The narrower core.Engine contract cannot cross a wire at all: its
// Update method takes a mutation closure.)
//
// Pipelining: a per-connection reader goroutine decodes frames ahead of
// execution into a bounded queue while the handler executes requests in
// arrival order and writes responses through one buffered writer,
// flushing only when the queue runs dry — a pipelined burst of N
// requests costs one response flush, not N.
//
// Shutdown: Close stops accepting, wakes blocked readers, lets every
// already-received request finish and its response flush (graceful
// drain), then force-closes stragglers after DrainTimeout.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/gdpr"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// Token, when non-empty, must match every client Hello.
	Token string
	// AuditPolicy names the audit append pipeline the hosted engine runs
	// ("sync" | "batched" | "async"); reported to clients in HelloOK so
	// remote measurements can record the audit configuration.
	AuditPolicy string
	// Pipeline is the per-connection request read-ahead depth (default 64).
	Pipeline int
	// DrainTimeout bounds how long Close waits for in-flight requests
	// before force-closing connections (default 5s).
	DrainTimeout time.Duration
	// HandshakeTimeout bounds the Hello exchange (default 10s).
	HandshakeTimeout time.Duration
	// Obs is the observability registry the server reports to and serves
	// over the METRICS verb (nil means obs.Default()). Tests inject
	// private registries here.
	Obs *obs.Registry
	// MaxCursors caps concurrently open streaming cursors per session
	// (default 16); SELECT-STREAM past the cap is refused with a
	// structured error, so one connection cannot pin unbounded
	// server-side iterator state.
	MaxCursors int
}

func (c Config) withDefaults() Config {
	if c.Pipeline <= 0 {
		c.Pipeline = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.MaxCursors <= 0 {
		c.MaxCursors = 16
	}
	return c
}

// Server serves the GDPR query interface over TCP. The Server does not
// own the DB: the caller closes it after Close returns.
type Server struct {
	db  core.DB
	bc  core.BatchCreator // non-nil when db bulk-creates
	cfg Config

	// Interned once at construction: the per-frame path must not pay a
	// map lookup. mDepth is observed at dequeue, so its distribution is
	// the read-ahead the pipeline actually achieved (1 = no pipelining).
	obs      *obs.Registry
	mFrames  *obs.Counter
	mConns   *obs.Gauge
	mAccept  *obs.Counter
	mDepth   *obs.Histogram
	mStreams *obs.Counter
	mCursors *obs.Gauge

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	quit   chan struct{}
	closed bool
	wg     sync.WaitGroup
}

// New wraps db in a wire-protocol server.
func New(db core.DB, cfg Config) *Server {
	s := &Server{
		db:    db,
		cfg:   cfg.withDefaults(),
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
	}
	s.bc, _ = db.(core.BatchCreator)
	s.obs = s.cfg.Obs
	if s.obs == nil {
		s.obs = obs.Default()
	}
	s.mFrames = s.obs.Counter("server_frames_total")
	s.mConns = s.obs.Gauge("server_connections")
	s.mAccept = s.obs.Counter("server_connections_total")
	s.mDepth = s.obs.Histogram("server_pipeline_depth")
	s.mStreams = s.obs.Counter("server_streams_total")
	s.mCursors = s.obs.Gauge("server_cursors_open")
	return s
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves in a background goroutine, returning the bound address. A
// runtime accept failure (e.g. fd exhaustion) is logged — the process
// must not look healthy while the accept loop is dead.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			log.Printf("server: accept loop failed: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Serve accepts connections on ln until Close. It returns nil after a
// graceful Close, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: already serving")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(nc)
	}
}

// Addr returns the listening address (after Serve or Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close drains the server: no new connections, blocked readers woken,
// every request already received is executed and its response flushed,
// then connections close. Stragglers are cut after DrainTimeout.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return nil
}

// handleConn runs one connection: handshake, then the pipelined
// request/response loop.
func (s *Server) handleConn(nc net.Conn) {
	connDone := make(chan struct{})
	defer func() {
		close(connDone)
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
		s.wg.Done()
	}()
	// Wake a blocked frame read when the server drains. The deadline is
	// re-armed until the connection exits: a one-shot set could race the
	// handshake's deadline clearing and leave the reader blocked for
	// the whole DrainTimeout.
	go func() {
		select {
		case <-s.quit:
			for {
				nc.SetReadDeadline(time.Now())
				select {
				case <-connDone:
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
		case <-connDone:
		}
	}()

	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)
	// One codec pair per connection: the reader goroutine owns dec, the
	// handler loop owns enc, so every frame after the handshake reuses
	// the same two buffers instead of allocating per message.
	var dec wire.Decoder
	var enc wire.Encoder
	role, ok := s.handshake(nc, br, bw, &dec, &enc)
	if !ok {
		return
	}
	s.mAccept.Inc()
	s.mConns.Add(1)
	defer s.mConns.Add(-1)

	// The session's streaming cursor table lives (and dies) with the
	// handler: whatever the client leaves open — clean disconnect, drain,
	// or a killed connection — is reaped here, so cursors never outlive
	// their session.
	sess := &session{cursors: make(map[uint64]core.RecordCursor)}
	defer func() {
		n := sess.closeAll()
		s.mCursors.Add(-int64(n))
	}()

	requests := make(chan wire.Message, s.cfg.Pipeline)
	go func() {
		defer close(requests)
		for {
			m, err := dec.ReadMessage(br)
			if err != nil {
				return
			}
			select {
			case requests <- m:
			case <-connDone:
				// The handler exited (write error) with the queue full;
				// without this arm the send would block forever and leak
				// this goroutine.
				return
			}
		}
	}()
	for m := range requests {
		s.mFrames.Inc()
		// Depth includes the request just taken: 1 means the client was
		// not pipelining, Pipeline+1 means the read-ahead queue was full.
		s.mDepth.Observe(int64(len(requests)) + 1)
		resp := s.execute(role, sess, m)
		if err := enc.WriteMessage(bw, resp); err != nil {
			var fe *wire.FrameError
			if !errors.As(err, &fe) {
				return
			}
			// The response outgrew the frame limit (nothing was written):
			// answer with a structured error instead of killing the
			// session.
			over := &wire.ErrorResp{Kind: wire.ErrGeneric, Msg: err.Error()}
			if err := enc.WriteMessage(bw, over); err != nil {
				return
			}
		}
		// Flush only when the pipeline runs dry: a burst of N pipelined
		// requests costs one flush.
		if len(requests) == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
	bw.Flush()
}

// handshake runs the Hello exchange and returns the session role. It
// runs before the reader goroutine starts, so it may use both codec
// halves sequentially.
func (s *Server) handshake(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, dec *wire.Decoder, enc *wire.Encoder) (acl.Role, bool) {
	reject := func(reason string) (acl.Role, bool) {
		enc.WriteMessage(bw, &wire.ErrorResp{Kind: wire.ErrGeneric, Msg: "server: " + reason})
		bw.Flush()
		return 0, false
	}
	nc.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	msg, err := dec.ReadMessage(br)
	if err != nil {
		return 0, false
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		return reject(fmt.Sprintf("expected hello, got %v", msg.Op()))
	}
	if hello.Version != wire.ProtocolVersion {
		return reject(fmt.Sprintf("protocol version %d not supported (want %d)", hello.Version, wire.ProtocolVersion))
	}
	if s.cfg.Token != "" && hello.Token != s.cfg.Token {
		return reject("bad auth token")
	}
	if hello.Role < acl.Controller || hello.Role > acl.Regulator {
		return reject(fmt.Sprintf("unknown GDPR role %d", hello.Role))
	}
	nc.SetReadDeadline(time.Time{})
	if err := enc.WriteMessage(bw, &wire.HelloOK{Version: wire.ProtocolVersion, AuditPolicy: s.cfg.AuditPolicy}); err != nil {
		return 0, false
	}
	if err := bw.Flush(); err != nil {
		return 0, false
	}
	return hello.Role, true
}

// session is per-connection handler state: the open streaming cursors,
// keyed by the id StreamOpened handed the client. Owned by the handler
// goroutine alone (requests execute in arrival order), so no lock.
type session struct {
	cursors map[uint64]core.RecordCursor
	nextID  uint64
}

// closeAll reaps every open cursor and reports how many there were.
func (ss *session) closeAll() int {
	n := len(ss.cursors)
	for id, cur := range ss.cursors {
		cur.Close()
		delete(ss.cursors, id)
	}
	return n
}

// execute runs one request against the compliance-wrapped DB and shapes
// the response. It never returns nil.
func (s *Server) execute(role acl.Role, sess *session, msg wire.Message) wire.Message {
	fail := func(err error) wire.Message {
		resp := wire.ErrorFrom(err)
		if errors.Is(err, core.ErrFeatureDisabled) {
			resp.Kind = wire.ErrFeatureDisabled
		}
		return resp
	}
	// The session was authenticated as one GDPR role; requests may not
	// act as another (a customer connection cannot issue controller
	// queries by lying in the actor field). Actor *identity* within the
	// role is asserted by the client, exactly as the embedded client
	// stubs trust in-process actor values — per-principal authentication
	// would sit in the handshake, not here.
	checkActor := func(a acl.Actor) error {
		if a.Role != role {
			return fmt.Errorf("server: request actor role %s does not match session role %s", a.Role, role)
		}
		return nil
	}
	switch m := msg.(type) {
	case *wire.CreateRecord:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		rec, err := gdpr.Decode(m.Rec)
		if err != nil {
			return fail(err)
		}
		if err := s.db.CreateRecord(m.Actor, rec); err != nil {
			return fail(err)
		}
		return &wire.Ack{}

	case *wire.CreateBatch:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		recs, err := wire.DecodeRecords(m.Recs)
		if err != nil {
			return fail(err)
		}
		// The engine keeps its native load shape: clients with a bulk
		// path (the PostgreSQL model, shard routers) ingest the batch in
		// one call; the Redis model inserts record by record, preserving
		// the paper's one-command-per-record profile server-side.
		if s.bc != nil {
			err = s.bc.CreateRecords(m.Actor, recs)
		} else {
			for _, rec := range recs {
				if err = s.db.CreateRecord(m.Actor, rec); err != nil {
					break
				}
			}
		}
		if err != nil {
			return fail(err)
		}
		return &wire.Ack{}

	case *wire.ReadData:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		recs, err := s.db.ReadData(m.Actor, m.Sel)
		if err != nil {
			return fail(err)
		}
		return &wire.Records{Recs: wire.EncodeRecords(recs)}

	case *wire.ReadMetadata:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		recs, err := s.db.ReadMetadata(m.Actor, m.Sel)
		if err != nil {
			return fail(err)
		}
		return &wire.Records{Recs: wire.EncodeRecords(recs)}

	case *wire.UpdateData:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		n, err := s.db.UpdateData(m.Actor, m.Key, m.Data)
		if err != nil {
			return fail(err)
		}
		return &wire.Count{N: int64(n)}

	case *wire.UpdateMetadata:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		n, err := s.db.UpdateMetadata(m.Actor, m.Sel, m.Delta)
		if err != nil {
			return fail(err)
		}
		return &wire.Count{N: int64(n)}

	case *wire.DeleteRecord:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		n, err := s.db.DeleteRecord(m.Actor, m.Sel)
		if err != nil {
			return fail(err)
		}
		return &wire.Count{N: int64(n)}

	case *wire.GetLogs:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		entries, err := s.db.GetSystemLogs(m.Actor, m.From, m.To)
		if err != nil {
			return fail(err)
		}
		return &wire.LogEntries{Entries: entries}

	case *wire.GetFeatures:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		f, err := s.db.GetSystemFeatures(m.Actor)
		if err != nil {
			return fail(err)
		}
		return wire.FeaturesFromMap(f)

	case *wire.VerifyDeletion:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		n, err := s.db.VerifyDeletion(m.Actor, m.Keys)
		if err != nil {
			return fail(err)
		}
		return &wire.Count{N: int64(n)}

	case *wire.SpaceUsage:
		su, err := s.db.SpaceUsage()
		if err != nil {
			return fail(err)
		}
		return &wire.Space{Personal: su.PersonalBytes, Total: su.TotalBytes}

	case *wire.Metrics:
		// Introspection, not data access: the snapshot carries series
		// names, counts and latencies — no record payloads — so, like
		// SpaceUsage, any authenticated session may pull it.
		return wire.MetricsFromSnapshot(s.obs.Snapshot(m.Slowlog))

	case *wire.SelectStream:
		if err := checkActor(m.Actor); err != nil {
			return fail(err)
		}
		if len(sess.cursors) >= s.cfg.MaxCursors {
			return fail(fmt.Errorf("server: too many open cursors (max %d)", s.cfg.MaxCursors))
		}
		// Clamp the requested chunk at execution time rather than in the
		// codec (the frame stays canonical): maxStreamChunk keeps any
		// honest chunk of records inside one response frame.
		chunk := int(min(m.Chunk, maxStreamChunk))
		cur, err := s.openCursor(m.Actor, m.Sel, chunk, m.Meta)
		if err != nil {
			return fail(err)
		}
		sess.nextID++
		id := sess.nextID
		sess.cursors[id] = cur
		s.mStreams.Inc()
		s.mCursors.Add(1)
		return &wire.StreamOpened{ID: id}

	case *wire.StreamNext:
		cur, ok := sess.cursors[m.ID]
		if !ok {
			// Unknown or already-finished cursor: answer Done instead of
			// erroring, so a StreamNext racing the stream's natural end
			// (or a reap) resolves cleanly.
			return &wire.StreamChunk{ID: m.ID, Done: true}
		}
		recs, err := cur.Next()
		if err == io.EOF {
			cur.Close()
			delete(sess.cursors, m.ID)
			s.mCursors.Add(-1)
			return &wire.StreamChunk{ID: m.ID, Done: true}
		}
		if err != nil {
			cur.Close()
			delete(sess.cursors, m.ID)
			s.mCursors.Add(-1)
			return fail(err)
		}
		return &wire.StreamChunk{ID: m.ID, Recs: wire.EncodeRecords(recs)}

	case *wire.StreamClose:
		if cur, ok := sess.cursors[m.ID]; ok {
			cur.Close()
			delete(sess.cursors, m.ID)
			s.mCursors.Add(-1)
		}
		return &wire.Ack{}

	default:
		return fail(fmt.Errorf("server: unexpected %v frame", msg.Op()))
	}
}

// maxStreamChunk bounds the records per StreamChunk frame. 4096 records
// of the benchmark's ~1-4KB payloads stay well inside MaxFrameSize; an
// oversized chunk of unusually fat records still degrades cleanly via
// the handler's structured-error fallback.
const maxStreamChunk = 4096

// openCursor builds the session cursor behind SELECT-STREAM: the DB's
// own streaming read, compliance and all. A DB that cannot stream is
// refused with a structured error rather than served by materializing.
func (s *Server) openCursor(a acl.Actor, sel gdpr.Selector, chunk int, meta bool) (core.RecordCursor, error) {
	sr, ok := s.db.(core.StreamReader)
	if !ok {
		return nil, fmt.Errorf("server: SELECT-STREAM needs a streaming DB; %T does not stream", s.db)
	}
	if meta {
		return sr.ReadMetadataStream(a, sel, chunk)
	}
	return sr.ReadDataStream(a, sel, chunk)
}

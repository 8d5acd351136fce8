// Package wire is the network protocol of the GDPR service layer: a
// length-prefixed binary framing with one message type per §3.3 query
// (CREATE-RECORD through VERIFY-DELETION) plus the Hello handshake that
// binds a connection to a GDPR role. Record payloads reuse the
// benchmark's §4.2.1 wire format (gdpr.Encode/Decode), so a record's
// bytes on the network are exactly its bytes in the Redis-model store.
//
// Framing: every frame is
//
//	[4-byte big-endian length N] [1-byte opcode] [N-1 payload bytes]
//
// with 1 <= N <= MaxFrameSize. Payload fields use a canonical codec —
// minimal-length varints, length-prefixed strings, one-byte booleans and
// time-presence flags — so decode(encode(m)) == m and encode(decode(b))
// == b hold for every accepted frame (the FuzzWireRoundTrip property).
// Each message type spells its field layout once, in a code method the
// codec runs in either direction, so the two cannot drift apart.
// Requests carry the acting GDPR entity; responses carry either the
// §3.3 result shape or a structured error that reconstructs the
// server-side error value (access denials stay typed across the wire,
// which the benchmark runner depends on).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/gdpr"
	"repro/internal/obs"
	"repro/internal/pool"
)

const (
	// ProtocolVersion is negotiated in the Hello handshake. Version 2
	// added HelloOK.AuditPolicy; version 3 added the METRICS
	// introspection exchange (Metrics/MetricsResp); version 4 added the
	// streaming cursor exchange (SelectStream/StreamNext/StreamClose and
	// the StreamOpened/StreamChunk responses). The codec is canonical (no
	// optional fields), so any frame-shape change bumps the version and a
	// mismatch is rejected cleanly at handshake.
	ProtocolVersion = 4
	// MaxFrameSize bounds one frame's opcode + payload; oversized frames
	// are rejected before any payload allocation.
	MaxFrameSize = 16 << 20
)

// Op identifies a frame's message type.
type Op byte

// Frame opcodes: requests first, then responses.
const (
	opInvalid Op = iota
	OpHello
	OpCreateRecord
	OpCreateBatch
	OpReadData
	OpReadMetadata
	OpUpdateData
	OpUpdateMetadata
	OpDeleteRecord
	OpGetLogs
	OpGetFeatures
	OpVerifyDeletion
	OpSpaceUsage
	OpHelloOK
	OpAck
	OpRecords
	OpCount
	OpLogEntries
	OpFeatures
	OpSpace
	OpError
	// Version 3 introspection exchange (appended so earlier opcodes keep
	// their values).
	OpMetrics
	OpMetricsResp
	// Version 4 streaming cursor exchange.
	OpSelectStream
	OpStreamNext
	OpStreamClose
	OpStreamOpened
	OpStreamChunk
	opEnd // sentinel: one past the last valid opcode
)

func (o Op) String() string {
	names := [...]string{
		"invalid", "hello", "create-record", "create-batch", "read-data",
		"read-metadata", "update-data", "update-metadata", "delete-record",
		"get-logs", "get-features", "verify-deletion", "space-usage",
		"hello-ok", "ack", "records", "count", "log-entries", "features",
		"space", "error", "metrics", "metrics-resp", "select-stream",
		"stream-next", "stream-close", "stream-opened", "stream-chunk",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// FrameError reports a malformed, truncated or oversized frame.
type FrameError struct{ Reason string }

func (e *FrameError) Error() string { return "wire: " + e.Reason }

// Message is one protocol frame's decoded form.
type Message interface {
	// Op returns the frame opcode.
	Op() Op
	// code is the message's one field layout: it runs the fields, in
	// wire order, through a codec that either appends or reads them.
	code(c *codec)
}

// newMessage holds a zero-message constructor per opcode; a nil entry
// is an unknown opcode.
var newMessage = [opEnd]func() Message{
	OpHello: zero[Hello], OpCreateRecord: zero[CreateRecord], OpCreateBatch: zero[CreateBatch],
	OpReadData: zero[ReadData], OpReadMetadata: zero[ReadMetadata],
	OpUpdateData: zero[UpdateData], OpUpdateMetadata: zero[UpdateMetadata],
	OpDeleteRecord: zero[DeleteRecord], OpGetLogs: zero[GetLogs], OpGetFeatures: zero[GetFeatures],
	OpVerifyDeletion: zero[VerifyDeletion], OpSpaceUsage: zero[SpaceUsage],
	OpHelloOK: zero[HelloOK], OpAck: zero[Ack], OpRecords: zero[Records], OpCount: zero[Count],
	OpLogEntries: zero[LogEntries], OpFeatures: zero[Features], OpSpace: zero[Space],
	OpError: zero[ErrorResp], OpMetrics: zero[Metrics], OpMetricsResp: zero[MetricsResp],
	OpSelectStream: zero[SelectStream], OpStreamNext: zero[StreamNext], OpStreamClose: zero[StreamClose],
	OpStreamOpened: zero[StreamOpened], OpStreamChunk: zero[StreamChunk],
}

// zero returns a new zero T as a Message.
func zero[T any, P interface {
	*T
	Message
}]() Message {
	return P(new(T))
}

// AppendEncode appends m's complete frame to buf and returns the
// extended slice (the frame starts at the caller's len(buf)).
func AppendEncode(buf []byte, m Message) []byte {
	c := codec{buf: buf}
	c.frame(m)
	return c.buf
}

// An Encoder frames and writes messages through one persistent buffer,
// so a long-lived connection (server handler, remote client) encodes
// every frame allocation-free once the buffer has grown to its working
// size. Not safe for concurrent use; callers serialize per connection.
type Encoder struct{ c codec }

// WriteMessage frames and writes m, reusing the encoder's buffer. A
// message that encodes beyond MaxFrameSize is rejected with a
// *FrameError before any byte is written, so the connection stays
// usable — the peer would drop the whole session on an oversized frame,
// turning one bad request into a failure of every in-flight operation.
func (e *Encoder) WriteMessage(out io.Writer, m Message) error {
	e.c.buf = e.c.buf[:0]
	e.c.frame(m)
	if n := len(e.c.buf) - 4; n > MaxFrameSize {
		return &FrameError{fmt.Sprintf("%v frame of %d bytes exceeds the %d-byte limit", m.Op(), n, MaxFrameSize)}
	}
	_, err := out.Write(e.c.buf)
	return err
}

// A Decoder reads and decodes frames through one persistent buffer.
// Decoded messages never alias the buffer (the payload codec copies
// every string out), so the next ReadMessage may overwrite it freely.
// Not safe for concurrent use; callers serialize per connection.
type Decoder struct {
	buf []byte
	c   codec
}

// ReadMessage reads and decodes one frame, reusing the decoder's
// buffer. Truncated frames surface as io.EOF / io.ErrUnexpectedEOF;
// malformed or oversized ones as a *FrameError.
func (d *Decoder) ReadMessage(in io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(in, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, &FrameError{"empty frame"}
	}
	if n > MaxFrameSize {
		return nil, &FrameError{fmt.Sprintf("frame of %d bytes exceeds the %d-byte limit", n, MaxFrameSize)}
	}
	if cap(d.buf) < int(n) {
		pool.PutBytes(d.buf)
		d.buf = pool.GetBytes(int(n))
	}
	buf := d.buf[:n]
	if _, err := io.ReadFull(in, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if buf[0] >= byte(opEnd) || newMessage[buf[0]] == nil {
		return nil, &FrameError{fmt.Sprintf("unknown opcode %d", buf[0])}
	}
	m := newMessage[buf[0]]()
	d.c = codec{buf: buf[1:], decoding: true}
	m.code(&d.c)
	if d.c.err != nil {
		return nil, fmt.Errorf("wire: decode %v: %w", m.Op(), d.c.err)
	}
	if d.c.off != len(d.c.buf) {
		return nil, &FrameError{fmt.Sprintf("%v frame has %d trailing bytes", m.Op(), len(d.c.buf)-d.c.off)}
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Canonical payload codec

// A codec runs a message's field layout in one of two directions:
// encoding appends each field to buf; decoding reads each field from
// buf[off:] into the message, checking it is in canonical form, and
// reads nothing after the first failure. Every field method takes a
// pointer, so one layout serves both directions.
type codec struct {
	buf      []byte
	off      int
	decoding bool
	err      error
}

// frame appends m's complete frame to c.buf.
func (c *codec) frame(m Message) {
	start := len(c.buf)
	c.buf = append(c.buf, 0, 0, 0, 0, byte(m.Op()))
	m.code(c)
	binary.BigEndian.PutUint32(c.buf[start:], uint32(len(c.buf)-start-4))
}

func (c *codec) fail(reason string) {
	if c.err == nil {
		c.err = &FrameError{reason}
	}
}

// uvarint codes a minimal-length unsigned varint; overlong encodings are
// rejected so the codec stays canonical (encode(decode(b)) == b).
func (c *codec) uvarint(v *uint64) {
	if !c.decoding {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	switch {
	case n <= 0:
		c.fail("bad varint")
	case n > 1 && c.buf[c.off+n-1] == 0:
		// A zero final group adds nothing: a shorter encoding exists.
		c.fail("non-minimal varint")
	default:
		*v = x
		c.off += n
	}
}

// varint codes a signed varint as the zig-zag uvarint encoding/binary
// writes, so it is canonical exactly when the uvarint is.
func (c *codec) varint(v *int64) {
	u := uint64(*v<<1) ^ uint64(*v>>63)
	c.uvarint(&u)
	if c.decoding {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *codec) byteVal(v *byte) {
	switch {
	case !c.decoding:
		c.buf = append(c.buf, *v)
	case c.err != nil:
	case c.off == len(c.buf):
		c.fail("truncated byte")
	default:
		*v = c.buf[c.off]
		c.off++
	}
}

// small codes an int-kinded enum (acl.Role, gdpr.DeltaOp) as one byte.
func small[T ~int](c *codec, v *T) {
	b := byte(*v)
	c.byteVal(&b)
	if c.decoding {
		*v = T(b)
	}
}

func (c *codec) boolVal(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.byteVal(&b)
	if c.decoding {
		if b > 1 {
			c.fail("bad bool")
		}
		*v = b == 1
	}
}

func (c *codec) str(s *string) {
	n := uint64(len(*s))
	c.uvarint(&n)
	switch {
	case !c.decoding:
		c.buf = append(c.buf, *s...)
	case c.err != nil:
	case n > uint64(len(c.buf)-c.off):
		c.fail("string length exceeds frame")
	default:
		*s = string(c.buf[c.off : c.off+int(n)])
		c.off += int(n)
	}
}

// strs codes a string list; every element costs at least its length
// byte.
func (c *codec) strs(ss *[]string) { list(c, ss, 1, "string", (*codec).str) }

// list codes *s as a count followed by each element's layout. Decoding,
// a count the remaining frame cannot hold at minSize bytes per element
// is rejected before anything is allocated; the pre-allocation is
// capped at 1024, because the count is attacker-controlled and a small
// frame must not demand a large allocation before its first element
// fails (append amortizes honest growth past the cap); and elements
// decode in place, stopping at the first malformed one.
func list[T any](c *codec, s *[]T, minSize int, what string, elem func(*codec, *T)) {
	n := uint64(len(*s))
	c.uvarint(&n)
	if !c.decoding {
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	if c.err == nil && n > uint64(len(c.buf)-c.off)/uint64(minSize) {
		c.fail(what + " count exceeds frame")
	}
	if c.err != nil || n == 0 {
		return
	}
	out := make([]T, 0, min(n, 1024))
	for ; n > 0 && c.err == nil; n-- {
		out = append(out, *new(T))
		elem(c, &out[len(out)-1])
	}
	*s = out
}

// at returns &(*s)[i] for a slice coded in parallel with a list, one
// element per list element; decoding appends element i first.
func at[T any](c *codec, s *[]T, i int) *T {
	if c.decoding {
		*s = append(*s, *new(T))
	}
	return &(*s)[i]
}

// timeVal codes t as a presence flag plus unix seconds and nanoseconds —
// not UnixNano, which silently wraps outside ~[1678, 2262] and would
// corrupt far-future "keep forever" expiries (legal in the gdpr record
// codec, which stores unix seconds). The zero time (meaning "unset"
// throughout the benchmark) is flag 0 and survives the trip.
func (c *codec) timeVal(t *time.Time) {
	var flag byte
	var sec int64
	var nsec uint64
	if !t.IsZero() {
		flag, sec, nsec = 1, t.Unix(), uint64(t.Nanosecond())
	}
	c.byteVal(&flag)
	if flag == 0 {
		return
	}
	if flag > 1 {
		c.fail("bad time flag")
		return
	}
	c.varint(&sec)
	c.uvarint(&nsec)
	if !c.decoding || c.err != nil {
		return
	}
	if nsec >= 1_000_000_000 {
		c.fail("time nanoseconds out of range")
		return
	}
	// The instant that equals Go's zero time must use flag 0, or
	// re-encoding would not reproduce the input bytes.
	if *t = time.Unix(sec, int64(nsec)).UTC(); t.IsZero() {
		c.fail("non-canonical zero time")
	}
}

// ---------------------------------------------------------------------------
// Shared sub-layouts

func (c *codec) actor(a *acl.Actor) {
	small(c, &a.Role)
	c.str(&a.ID)
	c.str(&a.Purpose)
}

func (c *codec) selector(sel *gdpr.Selector) {
	c.str((*string)(&sel.Attr))
	c.str(&sel.Value)
	c.boolVal(&sel.Negate)
	c.timeVal(&sel.AsOf)
}

func (c *codec) delta(d *gdpr.Delta) {
	c.str((*string)(&d.Attr))
	small(c, &d.Op)
	c.strs(&d.Values)
	c.timeVal(&d.Expiry)
}

func (c *codec) entry(e *audit.Entry) {
	c.uvarint(&e.Seq)
	c.timeVal(&e.Time)
	c.str(&e.Actor)
	c.str(&e.Op)
	c.str(&e.Target)
	c.boolVal(&e.OK)
	c.str(&e.Note)
}

// EncodeRecords renders records in the §4.2.1 wire format for transport.
func EncodeRecords(recs []gdpr.Record) []string {
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = gdpr.Encode(rec)
	}
	return out
}

// DecodeRecords parses transported §4.2.1 record payloads.
func DecodeRecords(encs []string) ([]gdpr.Record, error) {
	out := make([]gdpr.Record, len(encs))
	for i, enc := range encs {
		rec, err := gdpr.Decode(enc)
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Requests

// Hello opens a connection: the protocol version, the GDPR role every
// subsequent request on this connection acts as (the session binding),
// and the shared authentication token.
type Hello struct {
	Version uint64
	Role    acl.Role
	Token   string
}

func (*Hello) Op() Op { return OpHello }
func (m *Hello) code(c *codec) {
	c.uvarint(&m.Version)
	small(c, &m.Role)
	c.str(&m.Token)
}

// CreateRecord is the CREATE-RECORD request; Rec is a §4.2.1 payload.
type CreateRecord struct {
	Actor acl.Actor
	Rec   string
}

func (*CreateRecord) Op() Op { return OpCreateRecord }
func (m *CreateRecord) code(c *codec) {
	c.actor(&m.Actor)
	c.str(&m.Rec)
}

// CreateBatch is the bulk CREATE-RECORD request: one frame, one
// durability wait server-side when the engine batches.
type CreateBatch struct {
	Actor acl.Actor
	Recs  []string
}

func (*CreateBatch) Op() Op { return OpCreateBatch }
func (m *CreateBatch) code(c *codec) {
	c.actor(&m.Actor)
	c.strs(&m.Recs)
}

// ReadData is the READ-DATA-BY-{KEY|PUR|USR|OBJ|DEC} request.
type ReadData struct {
	Actor acl.Actor
	Sel   gdpr.Selector
}

func (*ReadData) Op() Op { return OpReadData }
func (m *ReadData) code(c *codec) {
	c.actor(&m.Actor)
	c.selector(&m.Sel)
}

// ReadMetadata is the READ-METADATA-BY-{KEY|USR|SHR} request.
type ReadMetadata struct {
	Actor acl.Actor
	Sel   gdpr.Selector
}

func (*ReadMetadata) Op() Op { return OpReadMetadata }
func (m *ReadMetadata) code(c *codec) {
	c.actor(&m.Actor)
	c.selector(&m.Sel)
}

// UpdateData is the UPDATE-DATA-BY-KEY request.
type UpdateData struct {
	Actor     acl.Actor
	Key, Data string
}

func (*UpdateData) Op() Op { return OpUpdateData }
func (m *UpdateData) code(c *codec) {
	c.actor(&m.Actor)
	c.str(&m.Key)
	c.str(&m.Data)
}

// UpdateMetadata is the UPDATE-METADATA-BY-{KEY|PUR|USR|SHR} request.
type UpdateMetadata struct {
	Actor acl.Actor
	Sel   gdpr.Selector
	Delta gdpr.Delta
}

func (*UpdateMetadata) Op() Op { return OpUpdateMetadata }
func (m *UpdateMetadata) code(c *codec) {
	c.actor(&m.Actor)
	c.selector(&m.Sel)
	c.delta(&m.Delta)
}

// DeleteRecord is the DELETE-RECORD-BY-{KEY|PUR|TTL|USR} request.
type DeleteRecord struct {
	Actor acl.Actor
	Sel   gdpr.Selector
}

func (*DeleteRecord) Op() Op { return OpDeleteRecord }
func (m *DeleteRecord) code(c *codec) {
	c.actor(&m.Actor)
	c.selector(&m.Sel)
}

// GetLogs is the GET-SYSTEM-LOGS request.
type GetLogs struct {
	Actor    acl.Actor
	From, To time.Time
}

func (*GetLogs) Op() Op { return OpGetLogs }
func (m *GetLogs) code(c *codec) {
	c.actor(&m.Actor)
	c.timeVal(&m.From)
	c.timeVal(&m.To)
}

// GetFeatures is the GET-SYSTEM-FEATURES request.
type GetFeatures struct{ Actor acl.Actor }

func (*GetFeatures) Op() Op          { return OpGetFeatures }
func (m *GetFeatures) code(c *codec) { c.actor(&m.Actor) }

// VerifyDeletion asks how many of the given keys still exist.
type VerifyDeletion struct {
	Actor acl.Actor
	Keys  []string
}

func (*VerifyDeletion) Op() Op { return OpVerifyDeletion }
func (m *VerifyDeletion) code(c *codec) {
	c.actor(&m.Actor)
	c.strs(&m.Keys)
}

// SpaceUsage asks for the §4.2.3 space-overhead inputs.
type SpaceUsage struct{}

func (*SpaceUsage) Op() Op      { return OpSpaceUsage }
func (*SpaceUsage) code(*codec) {}

// Metrics asks for the server's observability snapshot. Like SpaceUsage
// it is an admin query any authenticated session may issue — the
// snapshot carries operation counts, latencies and engine internals,
// never record payloads. Slowlog controls whether the slowlog ring
// (which names key classes, not keys) rides along.
type Metrics struct{ Slowlog bool }

func (*Metrics) Op() Op          { return OpMetrics }
func (m *Metrics) code(c *codec) { c.boolVal(&m.Slowlog) }

// SelectStream opens a server-side cursor over a selector result set
// (the streaming counterpart of ReadData/ReadMetadata). The server
// replies StreamOpened with the cursor id; the client then pulls chunks
// with StreamNext. Chunk is the requested records-per-chunk (0 lets the
// server choose); Meta selects the READ-METADATA projection (redacted
// Data) instead of READ-DATA. The cursor is bound to this session and
// reaped when the connection closes.
type SelectStream struct {
	Actor acl.Actor
	Sel   gdpr.Selector
	Chunk uint64
	Meta  bool
}

func (*SelectStream) Op() Op { return OpSelectStream }
func (m *SelectStream) code(c *codec) {
	c.actor(&m.Actor)
	c.selector(&m.Sel)
	c.uvarint(&m.Chunk)
	c.boolVal(&m.Meta)
}

// StreamNext pulls the next chunk from an open cursor. Clients may
// pipeline several StreamNext frames (credit-based flow control): each
// is an ordinary pipelined request with its own in-order StreamChunk
// response, so point operations interleave between chunks on the same
// connection.
type StreamNext struct{ ID uint64 }

func (*StreamNext) Op() Op          { return OpStreamNext }
func (m *StreamNext) code(c *codec) { c.uvarint(&m.ID) }

// StreamClose releases a cursor early. The server always acks — closing
// an unknown or already-finished cursor is a no-op, so close races
// (Done chunk in flight while the client closes) resolve cleanly.
type StreamClose struct{ ID uint64 }

func (*StreamClose) Op() Op          { return OpStreamClose }
func (m *StreamClose) code(c *codec) { c.uvarint(&m.ID) }

// ---------------------------------------------------------------------------
// Responses

// HelloOK accepts a handshake. AuditPolicy reports the server's audit
// append pipeline ("sync" | "batched" | "async"; empty when the server
// was not told one) so clients can record which audit configuration
// their measurements ran against.
type HelloOK struct {
	Version     uint64
	AuditPolicy string
}

func (*HelloOK) Op() Op { return OpHelloOK }
func (m *HelloOK) code(c *codec) {
	c.uvarint(&m.Version)
	c.str(&m.AuditPolicy)
}

// Ack acknowledges a create request.
type Ack struct{}

func (*Ack) Op() Op      { return OpAck }
func (*Ack) code(*codec) {}

// Records carries selector results as §4.2.1 payloads, engine order
// preserved.
type Records struct{ Recs []string }

func (*Records) Op() Op          { return OpRecords }
func (m *Records) code(c *codec) { c.strs(&m.Recs) }

// Count carries a mutation or verification count.
type Count struct{ N int64 }

func (*Count) Op() Op          { return OpCount }
func (m *Count) code(c *codec) { c.varint(&m.N) }

// LogEntries carries GET-SYSTEM-LOGS results.
type LogEntries struct{ Entries []audit.Entry }

func (*LogEntries) Op() Op { return OpLogEntries }

// A minimal entry (seq + time flag + three empty strings + ok + empty
// note) encodes to 7 bytes.
func (m *LogEntries) code(c *codec) { list(c, &m.Entries, 7, "entry", (*codec).entry) }

// Features carries GET-SYSTEM-FEATURES results as sorted key/value
// pairs (sorted so the encoding of a features map is canonical).
type Features struct{ Keys, Vals []string }

func (*Features) Op() Op { return OpFeatures }
func (m *Features) code(c *codec) {
	c.strs(&m.Keys)
	c.strs(&m.Vals)
	if c.decoding && len(m.Keys) != len(m.Vals) {
		c.fail("features key/value count mismatch")
	}
}

// FeaturesFromMap renders a features map with sorted keys.
func FeaturesFromMap(f map[string]string) *Features {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = f[k]
	}
	return &Features{Keys: keys, Vals: vals}
}

// Map rebuilds the features map.
func (m *Features) Map() map[string]string {
	out := make(map[string]string, len(m.Keys))
	for i, k := range m.Keys {
		out[k] = m.Vals[i]
	}
	return out
}

// Space carries the §4.2.3 space-overhead inputs.
type Space struct{ Personal, Total int64 }

func (*Space) Op() Op { return OpSpace }
func (m *Space) code(c *codec) {
	c.varint(&m.Personal)
	c.varint(&m.Total)
}

// StreamOpened accepts a SelectStream: ID names the server-side cursor
// for subsequent StreamNext/StreamClose frames.
type StreamOpened struct{ ID uint64 }

func (*StreamOpened) Op() Op          { return OpStreamOpened }
func (m *StreamOpened) code(c *codec) { c.uvarint(&m.ID) }

// StreamChunk answers one StreamNext: a batch of §4.2.1 record payloads
// in engine order. Done marks the final frame of the stream (Recs may
// be empty then); the server has already released the cursor, so no
// StreamClose is needed after a Done chunk. A StreamNext for an unknown
// cursor also answers Done with no records, keeping the exchange
// race-free around disconnect reaping.
type StreamChunk struct {
	ID   uint64
	Recs []string
	Done bool
}

func (*StreamChunk) Op() Op { return OpStreamChunk }
func (m *StreamChunk) code(c *codec) {
	c.uvarint(&m.ID)
	c.strs(&m.Recs)
	c.boolVal(&m.Done)
}

// MetricsResp carries a registry snapshot: counter and gauge series as
// name/value pairs, histogram series as name + summary, and (when
// requested) the slowlog. Series ride in parallel slices sorted by name
// — MetricsFromSnapshot sorts, so a snapshot's encoding is canonical
// the same way FeaturesFromMap's is.
type MetricsResp struct {
	CounterNames []string
	CounterVals  []int64
	GaugeNames   []string
	GaugeVals    []int64
	HistNames    []string
	HistStats    []obs.HistStat
	Slow         []obs.SlowEntry
}

func (*MetricsResp) Op() Op { return OpMetricsResp }

func (m *MetricsResp) code(c *codec) {
	c.series(&m.CounterNames, &m.CounterVals)
	c.series(&m.GaugeNames, &m.GaugeVals)
	// A minimal histogram entry (empty name + eight one-byte varints)
	// costs 9 bytes.
	i := 0
	list(c, &m.HistNames, 9, "histogram", func(c *codec, name *string) {
		c.str(name)
		st := at(c, &m.HistStats, i)
		for _, v := range [...]*int64{&st.Count, &st.Sum, &st.Min, &st.Max, &st.P50, &st.P95, &st.P99, &st.WindowCount} {
			c.varint(v)
		}
		i++
	})
	// A minimal slowlog entry (seq + zero time + three empty strings +
	// err + total + one varint per phase) costs 7+NumPhases bytes.
	list(c, &m.Slow, 7+int(obs.NumPhases), "slowlog", (*codec).slowEntry)
}

// series codes name/value pairs interleaved under one count, so the two
// slices cannot disagree in length on the wire. A minimal pair (empty
// name + one-byte varint) costs 2 bytes.
func (c *codec) series(names *[]string, vals *[]int64) {
	i := 0
	list(c, names, 2, "series", func(c *codec, name *string) {
		c.str(name)
		c.varint(at(c, vals, i))
		i++
	})
}

func (c *codec) slowEntry(e *obs.SlowEntry) {
	c.uvarint(&e.Seq)
	c.timeVal(&e.Time)
	c.str(&e.Op)
	c.str(&e.Role)
	c.str(&e.KeyClass)
	c.boolVal(&e.Err)
	c.varint((*int64)(&e.Total))
	for i := range e.Phases {
		c.varint((*int64)(&e.Phases[i]))
	}
}

// MetricsFromSnapshot renders snap as a wire response, series sorted by
// name so equal snapshots encode to equal bytes.
func MetricsFromSnapshot(snap obs.Snapshot) *MetricsResp {
	m := &MetricsResp{Slow: snap.Slowlog}
	m.CounterNames, m.CounterVals = sortSeries(snap.Counters)
	m.GaugeNames, m.GaugeVals = sortSeries(snap.Gauges)
	if len(snap.Hists) > 0 {
		m.HistNames = make([]string, 0, len(snap.Hists))
		for name := range snap.Hists {
			m.HistNames = append(m.HistNames, name)
		}
		sort.Strings(m.HistNames)
		m.HistStats = make([]obs.HistStat, len(m.HistNames))
		for i, name := range m.HistNames {
			m.HistStats[i] = snap.Hists[name]
		}
	}
	return m
}

func sortSeries(series map[string]int64) ([]string, []int64) {
	if len(series) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make([]int64, len(names))
	for i, name := range names {
		vals[i] = series[name]
	}
	return names, vals
}

// Snapshot rebuilds the obs.Snapshot the peer captured, so remote and
// embedded metrics reads share one downstream shape.
func (m *MetricsResp) Snapshot() obs.Snapshot {
	snap := obs.Snapshot{
		Counters: make(map[string]int64, len(m.CounterNames)),
		Gauges:   make(map[string]int64, len(m.GaugeNames)),
		Hists:    make(map[string]obs.HistStat, len(m.HistNames)),
		Slowlog:  m.Slow,
	}
	for i, name := range m.CounterNames {
		snap.Counters[name] = m.CounterVals[i]
	}
	for i, name := range m.GaugeNames {
		snap.Gauges[name] = m.GaugeVals[i]
	}
	for i, name := range m.HistNames {
		snap.Hists[name] = m.HistStats[i]
	}
	return snap
}

// ---------------------------------------------------------------------------
// Errors

// Error kinds: the classes a client must be able to reconstruct as
// typed error values.
const (
	// ErrGeneric is an opaque server-side error (engine failures).
	ErrGeneric byte = iota
	// ErrDenied is an access-control denial (*acl.DeniedError); the
	// benchmark runner treats these as valid outcomes, so the type must
	// survive the wire.
	ErrDenied
	// ErrValidation is a record-grammar violation (*gdpr.ValidationError).
	ErrValidation
	// ErrFeatureDisabled marks core.ErrFeatureDisabled; the server sets
	// it (wire cannot import core) and the client restores the sentinel.
	ErrFeatureDisabled
)

// ErrorResp carries a structured server-side error.
type ErrorResp struct {
	Kind    byte
	Role    acl.Role
	Verb    byte
	ID      string
	Purpose string
	Key     string
	Reason  string
	Msg     string
}

func (*ErrorResp) Op() Op { return OpError }
func (m *ErrorResp) code(c *codec) {
	c.byteVal(&m.Kind)
	small(c, &m.Role)
	c.byteVal(&m.Verb)
	c.str(&m.ID)
	c.str(&m.Purpose)
	c.str(&m.Key)
	c.str(&m.Reason)
	c.str(&m.Msg)
}

// ErrorFrom classifies err into a wire error. Callers layering extra
// sentinel classes (core.ErrFeatureDisabled) adjust Kind afterwards.
func ErrorFrom(err error) *ErrorResp {
	var denied *acl.DeniedError
	if errors.As(err, &denied) {
		return &ErrorResp{
			Kind:    ErrDenied,
			Role:    denied.Actor.Role,
			Verb:    byte(denied.Verb),
			ID:      denied.Actor.ID,
			Purpose: denied.Actor.Purpose,
			Key:     denied.Key,
			Reason:  denied.Reason,
		}
	}
	var invalid *gdpr.ValidationError
	if errors.As(err, &invalid) {
		return &ErrorResp{Kind: ErrValidation, Key: invalid.Key, Reason: invalid.Reason}
	}
	return &ErrorResp{Kind: ErrGeneric, Msg: err.Error()}
}

// Err reconstructs the error value the server classified. ErrDenied and
// ErrValidation come back as their concrete types so errors.As works
// across the service boundary; ErrFeatureDisabled is restored by the
// remote client (which can name the core sentinel).
func (m *ErrorResp) Err() error {
	switch m.Kind {
	case ErrDenied:
		return &acl.DeniedError{
			Actor:  acl.Actor{Role: m.Role, ID: m.ID, Purpose: m.Purpose},
			Verb:   acl.Verb(m.Verb),
			Key:    m.Key,
			Reason: m.Reason,
		}
	case ErrValidation:
		return &gdpr.ValidationError{Key: m.Key, Reason: m.Reason}
	default:
		return errors.New(m.Msg)
	}
}

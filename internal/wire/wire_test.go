package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/audit"
	"repro/internal/gdpr"
	"repro/internal/obs"
)

// sampleMessages returns one representative instance of every frame
// type, covering zero times, negated selectors, empty and multi-valued
// lists.
func sampleMessages() []Message {
	controller := acl.Actor{Role: acl.Controller, ID: "controller-1"}
	processor := acl.Actor{Role: acl.Processor, ID: "processor-1", Purpose: "ads"}
	rec := gdpr.Record{
		Key:  "ph-1x4b",
		Data: "123-456-7890",
		Meta: gdpr.Metadata{
			Purposes:   []string{"ads", "2fa"},
			Expiry:     time.Unix(1_552_867_200, 0).UTC(),
			User:       "neo",
			SharedWith: []string{"courier-co"},
			Source:     "first-party",
		},
	}
	return []Message{
		&Hello{Version: ProtocolVersion, Role: acl.Customer, Token: "secret"},
		&CreateRecord{Actor: controller, Rec: gdpr.Encode(rec)},
		&CreateBatch{Actor: controller, Recs: []string{gdpr.Encode(rec), gdpr.Encode(rec)}},
		&ReadData{Actor: processor, Sel: gdpr.ByPurpose("ads")},
		&ReadData{Actor: processor, Sel: gdpr.ByNotObjecting("ads")},
		&ReadMetadata{Actor: acl.Actor{Role: acl.Regulator, ID: "dpa-1"}, Sel: gdpr.ByShare("courier-co")},
		&UpdateData{Actor: acl.Actor{Role: acl.Customer, ID: "neo"}, Key: "ph-1x4b", Data: "555-000-1111"},
		&UpdateMetadata{
			Actor: controller,
			Sel:   gdpr.ByUser("neo"),
			Delta: gdpr.Delta{Attr: gdpr.AttrSharing, Op: gdpr.DeltaAdd, Values: []string{"shr01"}},
		},
		&UpdateMetadata{
			Actor: controller,
			Sel:   gdpr.ByPurpose("ads"),
			Delta: gdpr.Delta{Attr: gdpr.AttrTTL, Op: gdpr.DeltaSet, Expiry: time.Unix(1_600_000_000, 0).UTC()},
		},
		&UpdateMetadata{
			Actor: controller,
			Sel:   gdpr.ByPurpose("ads"),
			// A "keep forever" horizon far outside UnixNano's int64 range:
			// the time codec must not wrap it into the past.
			Delta: gdpr.Delta{Attr: gdpr.AttrTTL, Op: gdpr.DeltaSet,
				Expiry: time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)},
		},
		&DeleteRecord{Actor: controller, Sel: gdpr.ByExpiredAt(time.Unix(1_500_000_000, 0).UTC())},
		&GetLogs{Actor: acl.Actor{Role: acl.Regulator, ID: "dpa-1"},
			From: time.Unix(100, 0).UTC(), To: time.Unix(200, 0).UTC()},
		&GetLogs{Actor: acl.Actor{Role: acl.Regulator, ID: "dpa-1"}},
		&GetFeatures{Actor: acl.Actor{Role: acl.Regulator, ID: "dpa-1"}},
		&VerifyDeletion{Actor: acl.Actor{Role: acl.Regulator, ID: "dpa-1"}, Keys: []string{"r0000001", "never-existed"}},
		&VerifyDeletion{Actor: acl.Actor{Role: acl.Regulator, ID: "dpa-1"}},
		&SpaceUsage{},
		&Metrics{},
		&Metrics{Slowlog: true},
		&SelectStream{Actor: processor, Sel: gdpr.ByPurpose("ads"), Chunk: 256},
		&SelectStream{Actor: acl.Actor{Role: acl.Regulator, ID: "dpa-1"},
			Sel: gdpr.ByUser("neo"), Meta: true},
		&StreamNext{ID: 7},
		&StreamNext{},
		&StreamClose{ID: 7},
		&HelloOK{Version: ProtocolVersion},
		&HelloOK{Version: ProtocolVersion, AuditPolicy: "async"},
		&Ack{},
		&Records{Recs: []string{gdpr.Encode(rec)}},
		&Records{},
		&Count{N: -3},
		&Count{N: 42},
		&LogEntries{Entries: []audit.Entry{
			{Seq: 7, Time: time.Unix(123, 456).UTC(), Actor: "customer:neo", Op: "READ-DATA", Target: "KEY=ph-1x4b", OK: true, Note: "n=1"},
			{Seq: 8, Time: time.Unix(124, 0).UTC(), Actor: "controller:c1", Op: "DELETE-RECORD", Target: "USR=neo", OK: false, Note: "boom"},
		}},
		&LogEntries{},
		FeaturesFromMap(map[string]string{"compliance": "acl+strict", "aof": "everysec"}),
		&Features{},
		&Space{Personal: 1000, Total: 5200},
		MetricsFromSnapshot(obs.Snapshot{
			Counters: map[string]int64{
				`gdpr_ops_total{op="READ-DATA"}`:       420,
				`gdpr_op_errors_total{op="READ-DATA"}`: 3,
				"kvstore_read_locks_total":             99,
			},
			Gauges: map[string]int64{"server_connections": 2, "kvstore_bytes": 1 << 20},
			Hists: map[string]obs.HistStat{
				`gdpr_op_latency_ns{op="READ-DATA"}`: {
					Count: 26, Sum: 52_000, Min: 800, Max: 9_000,
					P50: 1_900, P95: 8_600, P99: 9_000, WindowCount: 4,
				},
			},
			Slowlog: []obs.SlowEntry{{
				Seq: 7, Time: time.Unix(1_552_867_200, 250).UTC(),
				Op: "DELETE-RECORD", Role: "controller", KeyClass: "USR",
				Err: true, Total: 40 * time.Millisecond,
				Phases: [obs.NumPhases]time.Duration{
					time.Microsecond, 2 * time.Microsecond, 0,
					39 * time.Millisecond, 900 * time.Microsecond,
				},
			}},
		}),
		&MetricsResp{},
		&StreamOpened{ID: 7},
		&StreamChunk{ID: 7, Recs: []string{gdpr.Encode(rec), gdpr.Encode(rec)}},
		&StreamChunk{ID: 7, Done: true},
		&ErrorResp{Kind: ErrDenied, Role: acl.Processor, Verb: byte(acl.VerbReadData),
			ID: "processor-1", Purpose: "ads", Key: "ph-1x4b", Reason: "owner objected"},
		&ErrorResp{Kind: ErrValidation, Key: "bad-rec", Reason: "strict mode requires a TTL (G 5(1e))"},
		&ErrorResp{Kind: ErrGeneric, Msg: "engine exploded"},
		&ErrorResp{Kind: ErrFeatureDisabled, Msg: "logging"},
	}
}

// encodeFrame renders m as one complete frame.
func encodeFrame(m Message) []byte { return AppendEncode(nil, m) }

// readFrame decodes one frame from in through a fresh Decoder.
func readFrame(in io.Reader) (Message, error) {
	var d Decoder
	return d.ReadMessage(in)
}

// rawFrame builds a frame around a hand-written payload.
func rawFrame(op Op, payload ...byte) []byte {
	return append([]byte{0, 0, 0, byte(len(payload) + 1), byte(op)}, payload...)
}

// goldenSHA256 is the SHA-256 over the frames of sampleMessages(), in
// order. It pins the wire format: any codec change that moves one byte
// of any frame type fails TestWireGoldenBytes.
const goldenSHA256 = "1b184d5a3a582793e23a1153a2722d2aa64ef8144aa998df87fe519975026c57"

func TestWireGoldenBytes(t *testing.T) {
	h := sha256.New()
	for _, m := range sampleMessages() {
		h.Write(AppendEncode(nil, m))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSHA256 {
		t.Fatalf("wire format changed: sha256 %s, want %s", got, goldenSHA256)
	}
}

// TestMalformedFramesRejected decodes hand-built frames that break one
// canonical-codec rule each; every one must fail with a *FrameError.
func TestMalformedFramesRejected(t *testing.T) {
	zeroInstant := binary.AppendVarint([]byte{0, 0, 0, 1}, time.Time{}.Unix()) // actor, then From flag 1
	badNanos := binary.AppendUvarint([]byte{0, 0, 0, 1, 0}, 1_000_000_000)
	slowMin := 7 + obs.NumPhases
	cases := []struct {
		name  string
		frame []byte
	}{
		{"non-minimal uvarint", rawFrame(OpHello, 0x84, 0x00, 0, 0)},
		{"non-minimal varint", rawFrame(OpCount, 0x80, 0x00)},
		{"bool 2", rawFrame(OpMetrics, 2)},
		{"time flag 2", rawFrame(OpGetLogs, 0, 0, 0, 2, 0, 0, 0)},
		{"nanoseconds out of range", rawFrame(OpGetLogs, append(badNanos, 0)...)},
		{"zero instant under flag 1", rawFrame(OpGetLogs, append(binary.AppendUvarint(zeroInstant, 0), 0)...)},
		{"string longer than frame", rawFrame(OpHello, 4, 0, 5, 'x')},
		{"string list count", rawFrame(OpRecords, 5, 0)},
		{"log entry count", rawFrame(OpLogEntries, append([]byte{2}, make([]byte, 7)...)...)},
		{"series count", rawFrame(OpMetricsResp, 3, 0, 0, 0, 0, 0)},
		{"histogram count", rawFrame(OpMetricsResp, append([]byte{0, 0, 2}, make([]byte, 9)...)...)},
		{"slowlog count", rawFrame(OpMetricsResp, append([]byte{0, 0, 0, 2}, make([]byte, slowMin)...)...)},
		{"features length mismatch", rawFrame(OpFeatures, 1, 1, 'a', 0)},
		{"trailing bytes", rawFrame(OpAck, 1, 2)},
		{"unknown opcode", rawFrame(0xee)},
		{"invalid opcode", rawFrame(opInvalid)},
		{"opcode past the last", rawFrame(opEnd)},
	}
	for _, tc := range cases {
		_, err := readFrame(bytes.NewReader(tc.frame))
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Errorf("%s (%x): got %v, want *FrameError", tc.name, tc.frame, err)
		}
	}
}

// TestPooledCodecAllocs pins the allocation contract of the Encoder/
// Decoder pair every connection holds: a point-read request costs 5
// allocations per round trip (the decoded message, its three non-empty
// strings, the frame header ReadFull sees through an interface) and a
// 10-record response 13 (message, slice, ten strings, header).
func TestPooledCodecAllocs(t *testing.T) {
	rec := gdpr.Encode(gdpr.Record{Key: "r0000001", Data: "123-456-7890",
		Meta: gdpr.Metadata{Purposes: []string{"ads"}, User: "u0001", Source: "first-party"}})
	for _, tc := range []struct {
		name string
		msg  Message
		max  float64
	}{
		{"read-data", &ReadData{Actor: acl.Actor{Role: acl.Customer, ID: "neo"}, Sel: gdpr.ByKey("r0000001")}, 5},
		{"records10", &Records{Recs: []string{rec, rec, rec, rec, rec, rec, rec, rec, rec, rec}}, 13},
	} {
		var enc Encoder
		var dec Decoder
		var buf bytes.Buffer
		got := testing.AllocsPerRun(200, func() {
			buf.Reset()
			if err := enc.WriteMessage(&buf, tc.msg); err != nil {
				t.Fatal(err)
			}
			if _, err := dec.ReadMessage(&buf); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per frame round trip, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// TestWireRoundTrip pins decode(encode(x)) == x (via canonical bytes)
// for every frame type.
func TestWireRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		enc := encodeFrame(m)
		got, err := readFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Op(), err)
		}
		if got.Op() != m.Op() {
			t.Fatalf("%v: decoded as %v", m.Op(), got.Op())
		}
		re := encodeFrame(got)
		if !bytes.Equal(enc, re) {
			t.Fatalf("%v: re-encode differs:\n  %x\n  %x", m.Op(), enc, re)
		}
	}
}

// TestWireRecordsSurviveTheTrip pins the §4.2.1 payload reuse: a record
// decoded from a Records frame equals the record that was encoded.
func TestWireRecordsSurviveTheTrip(t *testing.T) {
	rec := gdpr.MustDecode("ph-1x4b;123-456-7890;PUR=ads,2fa;TTL=1552867200;USR=neo;OBJ=;DEC=;SHR=;SRC=first-party;")
	enc := encodeFrame(&Records{Recs: EncodeRecords([]gdpr.Record{rec})})
	got, err := readFrame(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRecords(got.(*Records).Recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || gdpr.Encode(recs[0]) != gdpr.Encode(rec) {
		t.Fatalf("record changed across the wire: %v", recs)
	}
}

// TestTruncatedFramesRejected cuts a valid frame at every length and
// requires a clean error (no panic, no partial message).
func TestTruncatedFramesRejected(t *testing.T) {
	m := &ReadData{Actor: acl.Actor{Role: acl.Customer, ID: "neo"}, Sel: gdpr.ByUser("neo")}
	enc := encodeFrame(m)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := readFrame(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(enc))
		}
	}
	// A frame whose payload lies about an inner length is rejected too.
	bad := append([]byte(nil), enc...)
	bad[6] = 0xff // the actor-ID length varint now claims far more bytes than the frame holds
	if _, err := readFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt inner length accepted")
	}
}

// TestOversizedFrameRejected requires header-level rejection before any
// payload allocation.
func TestOversizedFrameRejected(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	_, err := readFrame(bytes.NewReader(hdr))
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("oversized frame: got %v, want *FrameError", err)
	}
}

func TestEmptyAndUnknownFramesRejected(t *testing.T) {
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("empty frame accepted")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 1, 0xee})); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	// Trailing payload bytes beyond the message body are rejected.
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 3, byte(OpAck), 1, 2})); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestErrorRoundTripKeepsTypes pins that denials and validation errors
// reconstruct as their concrete types (the runner's errors.As contract).
func TestErrorRoundTripKeepsTypes(t *testing.T) {
	denied := &acl.DeniedError{
		Actor:  acl.Actor{Role: acl.Processor, ID: "p1", Purpose: "ads"},
		Verb:   acl.VerbReadData,
		Key:    "r0000001",
		Reason: "owner objected",
	}
	resp := ErrorFrom(denied)
	back := resp.Err()
	var d2 *acl.DeniedError
	if !errors.As(back, &d2) {
		t.Fatalf("denial lost its type: %T", back)
	}
	if d2.Error() != denied.Error() {
		t.Fatalf("denial text changed: %q vs %q", d2.Error(), denied.Error())
	}

	invalid := &gdpr.ValidationError{Key: "k", Reason: "strict mode requires a TTL (G 5(1e))"}
	var v2 *gdpr.ValidationError
	if !errors.As(ErrorFrom(invalid).Err(), &v2) || v2.Error() != invalid.Error() {
		t.Fatalf("validation error lost across the wire")
	}

	if ErrorFrom(errors.New("boom")).Err().Error() != "boom" {
		t.Fatal("generic error text changed")
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes through ReadMessage; every
// accepted frame must re-encode to exactly the bytes consumed (the
// codec is canonical), and no input may panic or over-read.
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(encodeFrame(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := readFrame(r)
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		re := encodeFrame(m)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:consumed], re)
		}
		// Decoding the canonical form again must succeed and agree.
		m2, err := readFrame(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(encodeFrame(m2), re) {
			t.Fatal("second round trip diverged")
		}
	})
}

// TestFarFutureTimesSurviveTheTrip pins the time codec against UnixNano
// wraparound: a year-9999 TTL delta must decode to the same instant (a
// wrapped encoding would land in the past and silently expire records
// server-side).
func TestFarFutureTimesSurviveTheTrip(t *testing.T) {
	horizon := time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	m := &UpdateMetadata{
		Actor: acl.Actor{Role: acl.Controller, ID: "c1"},
		Sel:   gdpr.ByKey("k"),
		Delta: gdpr.Delta{Attr: gdpr.AttrTTL, Op: gdpr.DeltaSet, Expiry: horizon},
	}
	got, err := readFrame(bytes.NewReader(encodeFrame(m)))
	if err != nil {
		t.Fatal(err)
	}
	back := got.(*UpdateMetadata).Delta.Expiry
	if !back.Equal(horizon) {
		t.Fatalf("expiry changed across the wire: %v -> %v", horizon, back)
	}
	if back.Before(time.Unix(4_000_000_000, 0)) {
		t.Fatalf("far-future expiry wrapped into the near term: %v", back)
	}
}

// TestPoolAliasingWireCodec pins the Decoder's no-aliasing contract
// (the copy-on-checkout semantics internal/pool documents): messages
// decoded through the reused buffer must stay intact after that buffer
// is overwritten — first by later frames, then by a direct scribble.
func TestPoolAliasingWireCodec(t *testing.T) {
	samples := sampleMessages()
	canon := make([][]byte, len(samples))
	var enc Encoder
	var net bytes.Buffer
	for i, m := range samples {
		canon[i] = encodeFrame(m)
		if err := enc.WriteMessage(&net, m); err != nil {
			t.Fatalf("%v: encode: %v", m.Op(), err)
		}
	}
	var dec Decoder
	msgs := make([]Message, len(samples))
	for i := range samples {
		m, err := dec.ReadMessage(&net)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		msgs[i] = m
	}
	scratch := dec.buf[:cap(dec.buf)]
	for i := range scratch {
		scratch[i] = 0xff
	}
	for i, m := range msgs {
		if !bytes.Equal(encodeFrame(m), canon[i]) {
			t.Fatalf("%v: message aliased the decoder's pooled buffer", m.Op())
		}
	}
}

// TestEncoderOversizeRejectedBeforeWrite pins the Encoder's oversize
// contract: an oversized frame fails with a *FrameError before any byte
// reaches the connection, which stays usable for the next frame.
func TestEncoderOversizeRejectedBeforeWrite(t *testing.T) {
	var enc Encoder
	var net bytes.Buffer
	big := &UpdateData{Actor: acl.Actor{Role: acl.Customer, ID: "neo"},
		Key: "k", Data: string(make([]byte, MaxFrameSize))}
	var fe *FrameError
	if err := enc.WriteMessage(&net, big); !errors.As(err, &fe) {
		t.Fatalf("oversized frame: got %v, want *FrameError", err)
	}
	if net.Len() != 0 {
		t.Fatalf("%d bytes written despite oversize rejection", net.Len())
	}
	if err := enc.WriteMessage(&net, &Ack{}); err != nil {
		t.Fatalf("connection unusable after rejected frame: %v", err)
	}
	if _, err := readFrame(&net); err != nil {
		t.Fatalf("follow-up frame corrupt: %v", err)
	}
}

// FuzzWirePooledRoundTrip drives arbitrary bytes through a persistent
// Decoder/Encoder pair — the pooled-buffer path every connection uses —
// and requires the FuzzWireRoundTrip canonical property to survive
// buffer reuse: the first decode is re-encoded only after a second
// decode has overwritten the decoder's buffer, so any aliasing between
// message and buffer corrupts the comparison.
func FuzzWirePooledRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(encodeFrame(m))
	}
	f.Add([]byte{0, 0, 0, 1, byte(OpAck)})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		var enc Encoder
		r := bytes.NewReader(data)
		m1, err := dec.ReadMessage(r)
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		m2, err := dec.ReadMessage(bytes.NewReader(data[:consumed]))
		if err != nil {
			t.Fatalf("re-decode through reused buffer failed: %v", err)
		}
		var out1, out2 bytes.Buffer
		if err := enc.WriteMessage(&out1, m1); err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteMessage(&out2, m2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out1.Bytes(), data[:consumed]) {
			t.Fatalf("first decode corrupted by buffer reuse:\n in  %x\n out %x", data[:consumed], out1.Bytes())
		}
		if !bytes.Equal(out2.Bytes(), out1.Bytes()) {
			t.Fatal("decodes of identical bytes diverged")
		}
	})
}

// TestReadMessageEOF distinguishes a clean EOF (no bytes) from a
// truncated frame.
func TestReadMessageEOF(t *testing.T) {
	if _, err := readFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

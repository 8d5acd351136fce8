package audit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/securefs"
)

// The on-disk trail is a sequence of segments rolled by size:
//
//	<base>.000001.seg   securefs-framed entry batches
//	<base>.000001.idx   sidecar summary block (written at seal time)
//
// A .seg file holds 'E' frames, each a batch of encoded entries joined by
// newlines — the writer goroutine's group-commit unit. The .idx sidecar
// is one frame carrying the segment's summary: entry count, min/max
// sequence, min/max time, byte count and an actor bloom filter, so range
// and by-actor queries open only the segments that can match. A segment
// without a sidecar (the active segment, or any segment after a crash)
// is recovered by replaying its frames; a torn tail ends the segment,
// mirroring truncated-AOF recovery.

// ErrCorruptSegment is returned when a segment frame fails its format
// checks (distinct from securefs.ErrCorruptFrame, which covers framing
// and authentication).
var ErrCorruptSegment = errors.New("audit: corrupt segment")

const (
	frameEntries  byte = 'E'
	segSuffix          = ".seg"
	idxSuffix          = ".idx"
	footerVersion      = 1

	// bloomBytes sizes the per-segment actor bloom filter (2048 bits,
	// bloomHashes probes). At ~1000 distinct actors per segment the
	// false-positive rate stays low single-digit percent; a false
	// positive only costs one extra segment replay, never a wrong result.
	bloomBytes  = 256
	bloomHashes = 3
)

// bloom is a fixed-size bloom filter over actor names.
type bloom [bloomBytes]byte

func bloomProbes(s string) [bloomHashes]uint32 {
	h := fnv.New64a()
	h.Write([]byte(s))
	v := h.Sum64()
	// Kirsch–Mitzenmacher double hashing: probe_i = h1 + i*h2.
	h1, h2 := uint32(v), uint32(v>>32)|1
	var out [bloomHashes]uint32
	for i := range out {
		out[i] = (h1 + uint32(i)*h2) % (bloomBytes * 8)
	}
	return out
}

func (b *bloom) add(s string) {
	for _, p := range bloomProbes(s) {
		b[p/8] |= 1 << (p % 8)
	}
}

func (b *bloom) mayContain(s string) bool {
	for _, p := range bloomProbes(s) {
		if b[p/8]&(1<<(p%8)) == 0 {
			return false
		}
	}
	return true
}

// segMeta is one segment's summary block.
type segMeta struct {
	path    string
	count   int64
	bytes   int64 // encoded entry bytes (framing excluded)
	minSeq  uint64
	maxSeq  uint64
	minTime int64 // UnixNano
	maxTime int64
	actors  bloom
}

func (m *segMeta) observe(e Entry, encodedLen int) {
	ns := e.Time.UnixNano()
	if m.count == 0 {
		m.minSeq, m.maxSeq = e.Seq, e.Seq
		m.minTime, m.maxTime = ns, ns
	} else {
		if e.Seq < m.minSeq {
			m.minSeq = e.Seq
		}
		if e.Seq > m.maxSeq {
			m.maxSeq = e.Seq
		}
		if ns < m.minTime {
			m.minTime = ns
		}
		if ns > m.maxTime {
			m.maxTime = ns
		}
	}
	m.count++
	m.bytes += int64(encodedLen)
	m.actors.add(e.Actor)
}

func (m *segMeta) overlapsSeq(from, to uint64) bool {
	return m.count > 0 && m.minSeq <= to && m.maxSeq >= from
}

func (m *segMeta) overlapsTime(from, to time.Time) bool {
	return m.count > 0 && m.minTime <= to.UnixNano() && m.maxTime >= from.UnixNano()
}

// encodeFooter renders the summary block for the .idx sidecar.
func (m *segMeta) encodeFooter() []byte {
	buf := make([]byte, 0, 64+bloomBytes)
	buf = append(buf, footerVersion)
	buf = binary.AppendUvarint(buf, uint64(m.count))
	buf = binary.AppendVarint(buf, m.bytes)
	buf = binary.AppendUvarint(buf, m.minSeq)
	buf = binary.AppendUvarint(buf, m.maxSeq)
	buf = binary.AppendVarint(buf, m.minTime)
	buf = binary.AppendVarint(buf, m.maxTime)
	buf = append(buf, m.actors[:]...)
	return buf
}

func decodeFooter(p []byte) (segMeta, error) {
	fail := func(what string) (segMeta, error) {
		return segMeta{}, fmt.Errorf("audit: summary block: bad %s: %w", what, ErrCorruptSegment)
	}
	if len(p) < 1 || p[0] != footerVersion {
		return fail("version")
	}
	p = p[1:]
	var m segMeta
	u := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			p = nil
			return 0
		}
		p = p[n:]
		return v
	}
	i := func() int64 {
		v, n := binary.Varint(p)
		if n <= 0 {
			p = nil
			return 0
		}
		p = p[n:]
		return v
	}
	m.count = int64(u())
	m.bytes = i()
	m.minSeq = u()
	m.maxSeq = u()
	m.minTime = i()
	m.maxTime = i()
	if p == nil {
		return fail("varint")
	}
	if len(p) != bloomBytes {
		return fail("bloom length")
	}
	copy(m.actors[:], p)
	if m.count < 0 || m.minSeq > m.maxSeq {
		return fail("range")
	}
	return m, nil
}

// encodeBatch renders a group-commit batch as one 'E' frame payload,
// returning each entry's encoded length alongside so accounting never
// pays a second encode.
func encodeBatch(batch []Entry) ([]byte, []int) {
	n := 1
	lines := make([][]byte, len(batch))
	lens := make([]int, len(batch))
	for i, e := range batch {
		lines[i] = e.encode()
		lens[i] = len(lines[i])
		n += lens[i] + 1
	}
	out := make([]byte, 0, n)
	out = append(out, frameEntries)
	for i, line := range lines {
		if i > 0 {
			out = append(out, '\n')
		}
		out = append(out, line...)
	}
	return out, lens
}

// decodeBatch parses an 'E' frame payload back into entries.
func decodeBatch(p []byte, fn func(Entry) error) error {
	if len(p) == 0 || p[0] != frameEntries {
		return fmt.Errorf("audit: unknown frame type: %w", ErrCorruptSegment)
	}
	rest := p[1:]
	for len(rest) > 0 {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		e, err := decodeEntry(line)
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// segmentStore owns the on-disk side of the trail. The writer goroutine
// (or the inline sync path) appends and rolls; queries snapshot the
// sealed list and replay overlapping segments. Two mutexes split the
// state: actMu owns the active file handle and is held across its
// flush/fsync/seal, mu owns the summaries queries snapshot and is never
// held across file IO. Lock order: compactRun, compactMu, actMu, mu
// (Log.mu is a leaf, never held across a call into the store).
type segmentStore struct {
	base     string
	key      []byte
	maxBytes int64

	actMu  sync.Mutex     // serializes seal/roll/close against query flushes; guards active, actIdx, closed
	active *securefs.File // the segment being appended to
	actIdx int            // its numeric suffix
	closed bool

	mu     sync.Mutex // guards sealed, actRef
	sealed []segMeta
	actRef segMeta // the active segment's running summary

	// Retention compaction. compactMu lets queries replay sealed files
	// without a compactor renaming or deleting them mid-read: read holds
	// it shared for the whole replay, the compactor exclusively only
	// around each rename/delete swap (its heavy rewrite work happens
	// outside any lock). compactRun serializes whole compaction passes;
	// sealGen counts seals so the auto-trigger fires once per roll.
	compactMu  sync.RWMutex
	compactRun sync.Mutex
	sealGen    atomic.Int64
}

func segPath(base string, n int) string {
	return fmt.Sprintf("%s.%06d%s", base, n, segSuffix)
}

// listSegments returns the numeric suffixes of base's segment files in
// ascending order.
func listSegments(base string) ([]int, error) {
	dir, name := filepath.Dir(base), filepath.Base(base)
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("audit: list segments: %w", err)
	}
	var nums []int
	for _, ent := range ents {
		rest, ok := strings.CutPrefix(ent.Name(), name+".")
		if !ok {
			continue
		}
		numStr, ok := strings.CutSuffix(rest, segSuffix)
		if !ok {
			continue
		}
		n, err := strconv.Atoi(numStr)
		if err != nil || n < 0 {
			continue
		}
		nums = append(nums, n)
	}
	sort.Ints(nums)
	return nums, nil
}

// tornMode says how replaySegment treats a corrupt frame.
type tornMode int

const (
	// tornStrict: any corruption is an error (sealed, fsynced segments).
	tornStrict tornMode = iota
	// tornTail: corruption *after at least one intact frame* ends the
	// segment like a torn AOF tail. Corruption at the very first frame
	// stays an error: that is a wrong encryption key or real damage, not
	// a torn tail, and an encrypted compliance trail must not silently
	// read as empty.
	tornTail
	// tornAny: any corruption ends the segment — crash recovery of the
	// segment that was active when the process died, where even the
	// first flushed frame may be partial.
	tornAny
)

// replaySegment replays one .seg file's entries in order. It reports
// whether a tolerated tear ended the segment early.
func replaySegment(path string, key []byte, mode tornMode, fn func(Entry) error) (torn bool, err error) {
	intact := 0
	err = securefs.Replay(path, securefs.Options{Key: key}, func(p []byte) error {
		if err := decodeBatch(p, fn); err != nil {
			return err
		}
		intact++
		return nil
	})
	if err != nil && (errors.Is(err, securefs.ErrCorruptFrame) || errors.Is(err, ErrCorruptSegment)) {
		if mode == tornAny || (mode == tornTail && intact > 0) {
			return true, nil
		}
	}
	return false, err
}

// rebuildSegment recovers a sidecarless segment: it replays the file to
// rebuild the summary and then REPAIRS the on-disk state, so that no
// later reader (queries use tornStrict on sealed segments, and so does
// the next Open once this segment is no longer last) trips over torn
// bytes:
//
//   - zero recoverable entries: the file is set aside as .corrupt —
//     never deleted (it may be real data under a different key) — and
//     the segment reads as empty;
//   - a torn tail after an intact prefix: the prefix is rewritten via
//     tmp+rename (the same data-loss contract as WAL torn-tail
//     recovery) and summarized;
//   - intact: only the missing sidecar is rewritten.
func rebuildSegment(path string, key []byte, mode tornMode) (segMeta, error) {
	m := segMeta{path: path}
	var entries []Entry
	torn, err := replaySegment(path, key, mode, func(e Entry) error {
		m.observe(e, len(e.encode()))
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return segMeta{}, err
	}
	if m.count == 0 {
		if torn {
			os.Rename(path, path+".corrupt")
			os.Remove(path + idxSuffix)
		}
		return m, nil
	}
	if torn {
		tmp := path + ".rewrite"
		if err := writeSegmentFile(tmp, key, entries); err != nil {
			return segMeta{}, err
		}
		if err := securefs.Replace(tmp, path); err != nil {
			return segMeta{}, fmt.Errorf("audit: repair %s: %w", path, err)
		}
	}
	if err := writeSidecar(m, key); err != nil {
		return segMeta{}, err
	}
	return m, nil
}

// writeSegmentFile renders entries into a fresh segment file at path,
// fsyncing before close. Frames are chunked so one never approaches the
// securefs frame ceiling regardless of the input's size. Used by crash
// repair and retention compaction, both of which build the replacement
// under a tmp name and rename it into place.
func writeSegmentFile(path string, key []byte, entries []Entry) error {
	f, err := securefs.Create(path, securefs.Options{Key: key})
	if err != nil {
		return err
	}
	const chunk = 512
	for i := 0; i < len(entries); i += chunk {
		end := min(i+chunk, len(entries))
		frame, _ := encodeBatch(entries[i:end])
		if err := f.AppendFrame(frame); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openStore scans base's existing segments (sidecar summaries when
// present, replay otherwise — the crashed active segment has no sidecar)
// and opens a fresh active segment after them.
func openStore(base string, key []byte, maxBytes int64) (*segmentStore, error) {
	nums, err := listSegments(base)
	if err != nil {
		return nil, err
	}
	s := &segmentStore{base: base, key: key, maxBytes: maxBytes}
	for i, n := range nums {
		path := segPath(base, n)
		// A leftover .rewrite tmp (crashed repair or compaction) was never
		// renamed into place, so it holds no unique data.
		os.Remove(path + ".rewrite")
		mode := tornStrict
		if i == len(nums)-1 {
			// Only the segment that was active at a crash may
			// legitimately be torn — anywhere, even at frame 0.
			mode = tornAny
		}
		m, err := readSidecar(path, key)
		if err != nil {
			// No (or bad) sidecar: rebuild by replay and repair the
			// on-disk state so later strict reads stay clean.
			m, err = rebuildSegment(path, key, mode)
			if err != nil {
				return nil, fmt.Errorf("audit: recover %s: %w", path, err)
			}
		}
		m.path = path
		if m.count > 0 {
			s.sealed = append(s.sealed, m)
		}
	}
	s.actIdx = 1
	if len(nums) > 0 {
		s.actIdx = nums[len(nums)-1] + 1
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

func readSidecar(segFile string, key []byte) (segMeta, error) {
	var m segMeta
	got := false
	err := securefs.Replay(segFile+idxSuffix, securefs.Options{Key: key}, func(p []byte) error {
		if got {
			return fmt.Errorf("audit: trailing sidecar frame: %w", ErrCorruptSegment)
		}
		var err error
		m, err = decodeFooter(p)
		got = err == nil
		return err
	})
	if err != nil {
		return segMeta{}, err
	}
	if !got {
		return segMeta{}, fmt.Errorf("audit: empty sidecar: %w", ErrCorruptSegment)
	}
	return m, nil
}

// openActive creates segment actIdx and makes it the active one. Callers
// hold actMu (or are the constructor, before the store is shared).
func (s *segmentStore) openActive() error {
	path := segPath(s.base, s.actIdx)
	f, err := securefs.Create(path, securefs.Options{Key: s.key, BufferSize: 1 << 13})
	if err != nil {
		return err
	}
	s.active = f
	s.mu.Lock()
	s.actRef = segMeta{path: path}
	s.mu.Unlock()
	return nil
}

// frameBudget caps one batch frame's payload. A backpressure-deep batch
// could otherwise encode past securefs's frame ceiling — writes are not
// size-checked, so the oversized frame would poison every later replay
// of the segment. One chunk per budget keeps frames far below the limit
// while preserving the batch's single logical group commit.
const frameBudget = 1 << 20

// append writes one batch to the active segment (chunked into
// budget-bounded frames; each entry is encoded exactly once) and rolls
// the segment when it outgrows maxBytes. Called only by the writer
// goroutine (or the inline sync path), never concurrently with itself.
func (s *segmentStore) append(batch []Entry) (int64, error) {
	s.actMu.Lock()
	f := s.active
	s.actMu.Unlock()
	lines := make([][]byte, len(batch))
	lens := make([]int, len(batch))
	for i, e := range batch {
		lines[i] = e.encode()
		lens[i] = len(lines[i])
	}
	var encoded int64
	frame := make([]byte, 1, frameBudget/4)
	frame[0] = frameEntries
	flushFrame := func() error {
		if len(frame) <= 1 {
			return nil
		}
		err := f.AppendFrame(frame)
		frame = frame[:1]
		return err
	}
	for i, line := range lines {
		if len(frame) > 1 {
			if len(frame)+lens[i]+1 > frameBudget {
				if err := flushFrame(); err != nil {
					return encoded, err
				}
			} else {
				frame = append(frame, '\n')
			}
		}
		frame = append(frame, line...)
	}
	if err := flushFrame(); err != nil {
		return encoded, err
	}
	s.mu.Lock()
	for i, e := range batch {
		encoded += int64(lens[i])
		s.actRef.observe(e, lens[i])
	}
	roll := s.actRef.bytes >= s.maxBytes
	s.mu.Unlock()
	if roll {
		if err := s.seal(); err != nil {
			return encoded, err
		}
	}
	return encoded, nil
}

// seal closes the active segment — flush, fsync, sidecar summary — moves
// it to the sealed list and opens the next one. Sealed segments are
// fully durable, so crash recovery can only tear the active tail.
func (s *segmentStore) seal() error {
	s.actMu.Lock()
	defer s.actMu.Unlock()
	if err := s.active.Sync(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return err
	}
	s.mu.Lock()
	meta := s.actRef
	s.mu.Unlock()
	if meta.count > 0 {
		if err := writeSidecar(meta, s.key); err != nil {
			return err
		}
	} else {
		// Nothing was ever written: drop the empty file instead of
		// leaving a zero-entry segment behind.
		os.Remove(meta.path)
	}
	s.mu.Lock()
	if meta.count > 0 {
		s.sealed = append(s.sealed, meta)
	}
	s.actIdx++
	s.mu.Unlock()
	s.sealGen.Add(1)
	return s.openActive()
}

func writeSidecar(m segMeta, key []byte) error {
	f, err := securefs.Create(m.path+idxSuffix, securefs.Options{Key: key})
	if err != nil {
		return err
	}
	if err := f.AppendFrame(m.encodeFooter()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dropSealedLocked removes the sealed meta at path from the list,
// reporting whether it was present. Callers hold s.mu.
func (s *segmentStore) dropSealedLocked(path string) bool {
	for i, m := range s.sealed {
		if m.path == path {
			s.sealed = append(s.sealed[:i], s.sealed[i+1:]...)
			return true
		}
	}
	return false
}

// compact enforces a retention cutoff over the sealed segments: segments
// whose newest entry predates cutoffNs are deleted whole (.seg and .idx),
// and the segment straddling the cutoff is rewritten keeping only entries
// at or after it — built under a .rewrite tmp name off-lock, then renamed
// into place under the exclusive compactMu so no query replay is mid-file.
// The active segment is never touched; sequence numbers are preserved, so
// a compacted trail starts at a sparse sequence. Returns how many entries
// were dropped and whether any segment changed.
func (s *segmentStore) compact(cutoffNs int64) (dropped int64, changed bool, err error) {
	s.compactRun.Lock()
	defer s.compactRun.Unlock()
	s.mu.Lock()
	segs := append([]segMeta(nil), s.sealed...)
	s.mu.Unlock()
	for _, m := range segs {
		if m.minTime >= cutoffNs {
			continue // segments are time-ordered, nothing older follows
		}
		var kept []Entry
		nm := segMeta{path: m.path}
		if m.maxTime >= cutoffNs {
			// Boundary segment: collect the surviving suffix. Sealed
			// segments are strict — corruption here is real damage, and
			// compaction must not quietly shred a damaged trail.
			if _, err := replaySegment(m.path, s.key, tornStrict, func(e Entry) error {
				if e.Time.UnixNano() >= cutoffNs {
					nm.observe(e, len(e.encode()))
					kept = append(kept, e)
				}
				return nil
			}); err != nil {
				return dropped, changed, err
			}
			if nm.count == m.count {
				continue // clock skew within the segment; nothing expired
			}
		}
		if len(kept) == 0 {
			// Every entry expired: drop the segment whole.
			s.compactMu.Lock()
			s.mu.Lock()
			s.dropSealedLocked(m.path)
			s.mu.Unlock()
			rmErr := os.Remove(m.path)
			os.Remove(m.path + idxSuffix)
			s.compactMu.Unlock()
			if rmErr != nil {
				return dropped, changed, rmErr
			}
			dropped += m.count
			changed = true
			continue
		}
		tmp := m.path + ".rewrite"
		if err := writeSegmentFile(tmp, s.key, kept); err != nil {
			os.Remove(tmp)
			return dropped, changed, err
		}
		s.compactMu.Lock()
		if err := securefs.Replace(tmp, m.path); err != nil {
			s.compactMu.Unlock()
			os.Remove(tmp)
			return dropped, changed, err
		}
		if err := writeSidecar(nm, s.key); err != nil {
			s.compactMu.Unlock()
			return dropped, changed, err
		}
		s.mu.Lock()
		for i := range s.sealed {
			if s.sealed[i].path == m.path {
				s.sealed[i] = nm
				break
			}
		}
		s.mu.Unlock()
		s.compactMu.Unlock()
		dropped += m.count - nm.count
		changed = true
	}
	return dropped, changed, nil
}

// flush pushes buffered frames of the active segment to the OS so a
// concurrent query replay sees every committed batch.
func (s *segmentStore) flush() error {
	s.actMu.Lock()
	defer s.actMu.Unlock()
	if s.closed {
		return nil
	}
	return s.active.Flush()
}

// sync fsyncs the active segment (group commit's stable-storage step).
// actMu is held across the fsync to serialize against seal/close;
// appends never block on it because AppendFrame runs outside actMu.
func (s *segmentStore) sync() error {
	s.actMu.Lock()
	defer s.actMu.Unlock()
	if s.closed {
		return nil
	}
	return s.active.Sync()
}

// snapshot returns the sealed metas plus (when it holds entries) the
// active segment's current summary, reporting whether the last element
// is the active segment. It does NOT flush — the caller flushes only if
// it will actually replay the active file.
func (s *segmentStore) snapshot() ([]segMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]segMeta, 0, len(s.sealed)+1)
	out = append(out, s.sealed...)
	if s.actRef.count > 0 {
		return append(out, s.actRef), true
	}
	return out, false
}

// read replays every segment overlapping [fromSeq, toSeq] whose summary
// passes prune (time bounds, actor bloom), delivering matching entries
// in sequence order. keep filters per entry. The active segment — only
// when it actually needs replaying — is flushed first and tolerates a
// torn tail, because the writer may be mid-append past the caller's
// barrier point. Order matters: its meta was captured BEFORE the flush,
// so every batch the meta counts was fully buffered before the flush
// drained it — the replay is guaranteed that many entries' worth of
// complete frames, and anything torn beyond them is a concurrent append
// still in flight, never the frames the meta vouches for. Queries
// answered entirely from sealed (synced, summarized) segments skip the
// flush and never contend with the writer's group-commit fsync.
func (s *segmentStore) read(fromSeq, toSeq uint64, prune func(*segMeta) bool, keep func(Entry) bool, fn func(Entry)) error {
	if fromSeq > toSeq {
		return nil
	}
	// Shared with the compactor: it may not rename or delete a sealed
	// file while this replay walks the list.
	s.compactMu.RLock()
	defer s.compactMu.RUnlock()
	segs, activeLast := s.snapshot()
	for i, m := range segs {
		if !m.overlapsSeq(fromSeq, toSeq) || !prune(&m) {
			continue
		}
		mode := tornStrict
		if activeLast && i == len(segs)-1 {
			mode = tornTail
			if err := s.flush(); err != nil {
				return err
			}
		}
		_, err := replaySegment(m.path, s.key, mode, func(e Entry) error {
			if e.Seq >= fromSeq && e.Seq <= toSeq && keep(e) {
				fn(e)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// activeMinSeq returns the lowest sequence held by the active segment,
// or 0 when it is empty.
func (s *segmentStore) activeMinSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.actRef.count == 0 {
		return 0
	}
	return s.actRef.minSeq
}

// segments reports how many on-disk segments exist (active included).
func (s *segmentStore) segments() int64 {
	s.actMu.Lock()
	open := !s.closed
	s.actMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(len(s.sealed))
	if open {
		n++
	}
	return n
}

// restoredCounters sums the recovered segments' entry and byte counts.
func (s *segmentStore) restoredCounters() (maxSeq uint64, count, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.sealed {
		if m.maxSeq > maxSeq {
			maxSeq = m.maxSeq
		}
		count += m.count
		bytes += m.bytes
	}
	return maxSeq, count, bytes
}

// close seals the active segment (making the whole trail durable and
// sidecar-indexed) and marks the store closed. Idempotent.
func (s *segmentStore) close() error {
	s.actMu.Lock()
	closed := s.closed
	s.actMu.Unlock()
	if closed {
		return nil
	}
	err := s.seal()
	s.actMu.Lock()
	s.closed = true
	if s.active != nil {
		s.active.Close()
		s.mu.Lock()
		fresh := s.actRef.count == 0
		path := s.actRef.path
		s.mu.Unlock()
		// On a clean seal the remaining active segment is the fresh,
		// empty one seal just opened — remove it so a closed trail
		// leaves only sealed, summarized segments behind. If seal
		// FAILED, actRef still names the data-bearing segment: never
		// remove it (the next Open recovers it by replay).
		if err == nil && fresh {
			os.Remove(path)
		}
		s.active = nil
	}
	s.actMu.Unlock()
	return err
}

// Replay reads all entries of the trail rooted at path (surviving
// process restarts — the on-disk trail is the compliance artifact). The
// last segment may have a torn tail (crash); earlier segments must be
// intact.
func Replay(path string, key []byte, fn func(Entry) error) error {
	nums, err := listSegments(path)
	if err != nil {
		return err
	}
	if len(nums) == 0 {
		// Distinguish "no trail" from "empty trail" like os.Open would.
		if _, err := os.Stat(filepath.Dir(path)); err != nil {
			return fmt.Errorf("audit: replay %s: %w", path, err)
		}
		return nil
	}
	for i, n := range nums {
		mode := tornStrict
		if i == len(nums)-1 {
			mode = tornTail
		}
		if _, err := replaySegment(segPath(path, n), key, mode, fn); err != nil {
			return err
		}
	}
	return nil
}

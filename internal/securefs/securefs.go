// Package securefs is the data-at-rest encryption substrate. It plays the
// role LUKS plays in the paper (§5: "For data at rest, we use the Linux
// Unified Key Setup"): everything the engines persist (AOF, WAL, audit
// logs) can be routed through an encrypting, framed, append-only file.
//
// Framing: each Append produces one frame
//
//	[4-byte big-endian payload length][payload]
//
// where payload is either the plaintext record (encryption off) or
// nonce||AES-256-GCM(plaintext) (encryption on). GCM authenticates every
// frame, so torn or tampered tails are detected on replay — replay stops at
// the first bad frame, mirroring how Redis handles truncated AOFs.
package securefs

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrCorruptFrame is returned by iterators when a frame fails length or
// authentication checks.
var ErrCorruptFrame = errors.New("securefs: corrupt frame")

// maxFrame bounds a single frame; protects replay from absurd lengths
// produced by corruption.
const maxFrame = 64 << 20

// Key derives a 32-byte AES-256 key from a passphrase. The paper does not
// prescribe a KDF; a hash suffices since we model crypto *cost*, not key
// management.
func Key(passphrase string) []byte {
	sum := sha256.Sum256([]byte("gdprbench/securefs:" + passphrase))
	return sum[:]
}

// File is an append-only framed file with optional authenticated
// encryption. It is safe for concurrent use.
type File struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	aead    cipher.AEAD
	path    string
	written int64 // plaintext payload bytes appended (for space accounting)
	frames  int64
	closed  bool
}

// Options configures Create/Open.
type Options struct {
	// Key enables AES-256-GCM when non-nil; must be 16, 24 or 32 bytes.
	Key []byte
	// BufferSize is the userspace write-buffer size; frames reach the OS
	// whenever it fills (plus on Flush/Sync). Smaller buffers model
	// tighter logging pipelines (e.g. Redis flushes its AOF buffer every
	// event-loop iteration). 0 means 64 KiB.
	BufferSize int
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	if key == nil {
		return nil, nil
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("securefs: %w", err)
	}
	return cipher.NewGCM(block)
}

// Create opens path for appending, creating or truncating it.
func Create(path string, opts Options) (*File, error) {
	return open(path, opts, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
}

// Append opens path for appending, creating it if absent and preserving
// existing frames.
func Append(path string, opts Options) (*File, error) {
	return open(path, opts, os.O_CREATE|os.O_APPEND|os.O_WRONLY)
}

func open(path string, opts Options, flag int) (*File, error) {
	aead, err := newAEAD(opts.Key)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, flag, 0o600)
	if err != nil {
		return nil, fmt.Errorf("securefs: open %s: %w", path, err)
	}
	bufSize := opts.BufferSize
	if bufSize <= 0 {
		bufSize = 1 << 16
	}
	return &File{f: f, w: bufio.NewWriterSize(f, bufSize), aead: aead, path: path}, nil
}

// AppendFrame writes one frame containing payload. The write is buffered;
// call Flush or Sync to push it down.
func (s *File) AppendFrame(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("securefs: append to closed file %s", s.path)
	}
	body := payload
	if s.aead != nil {
		nonce := make([]byte, s.aead.NonceSize())
		if _, err := rand.Read(nonce); err != nil {
			return fmt.Errorf("securefs: nonce: %w", err)
		}
		body = s.aead.Seal(nonce, nonce, payload, nil)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("securefs: write %s: %w", s.path, err)
	}
	if _, err := s.w.Write(body); err != nil {
		return fmt.Errorf("securefs: write %s: %w", s.path, err)
	}
	s.written += int64(len(payload))
	s.frames++
	return nil
}

// Flush pushes buffered frames to the OS.
func (s *File) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Sync flushes and fsyncs the file. The userspace buffer is flushed
// under the file lock, but the fsync itself runs outside it: fsync on a
// file descriptor is safe concurrently with writes, and holding the lock
// across it would stall every AppendFrame (and Size) on this file for the
// duration of the flush. Frames appended after the flush may or may not
// reach disk with this sync; callers track their own durability
// watermark.
func (s *File) Sync() error {
	s.mu.Lock()
	err := s.w.Flush()
	f := s.f
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return f.Sync()
}

// PlaintextBytes reports total plaintext payload bytes appended in this
// session; used for space-overhead accounting.
func (s *File) PlaintextBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// Frames reports the number of frames appended in this session.
func (s *File) Frames() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

// Size reports the current on-disk size in bytes (after Flush).
func (s *File) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return 0, err
	}
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Path returns the file's path.
func (s *File) Path() string { return s.path }

// Close flushes and closes the file. Close is idempotent.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	ferr := s.w.Flush()
	cerr := s.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Replay reads every frame of the file at path, invoking fn with each
// decrypted payload in order. It stops with ErrCorruptFrame (wrapped with
// the frame index) at the first undecodable frame; frames before it are
// still delivered, mirroring truncated-AOF recovery.
func Replay(path string, opts Options, fn func(payload []byte) error) error {
	aead, err := newAEAD(opts.Key)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("securefs: open %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [4]byte
	for frame := int64(0); ; frame++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("frame %d: truncated header: %w", frame, ErrCorruptFrame)
			}
			return fmt.Errorf("securefs: read %s: %w", path, err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			return fmt.Errorf("frame %d: length %d exceeds limit: %w", frame, n, ErrCorruptFrame)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("frame %d: truncated body: %w", frame, ErrCorruptFrame)
		}
		payload := body
		if aead != nil {
			ns := aead.NonceSize()
			if len(body) < ns {
				return fmt.Errorf("frame %d: short nonce: %w", frame, ErrCorruptFrame)
			}
			payload, err = aead.Open(nil, body[:ns], body[ns:], nil)
			if err != nil {
				return fmt.Errorf("frame %d: auth failure: %w", frame, ErrCorruptFrame)
			}
		}
		if err := fn(payload); err != nil {
			return err
		}
	}
}

// Replace renames the fully written and synced file tmp over live and
// fsyncs the parent directory. Without the directory fsync a crash just
// after the rename can bring the old file back — for a rewrite, compaction
// or checkpoint, the one still holding the payloads the new file dropped.
func Replace(tmp, live string) error {
	if err := os.Rename(tmp, live); err != nil {
		return fmt.Errorf("securefs: replace %s: %w", live, err)
	}
	return SyncDir(filepath.Dir(live))
}

// SyncDir fsyncs directory dir, making the renames and file creations in
// it durable: until then a crash can undo them even when the files' own
// contents are on disk.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("securefs: sync directory %s: %w", dir, err)
	}
	return nil
}

// CountFrames returns the number of intact frames in the file at path.
func CountFrames(path string, opts Options) (int64, error) {
	var n int64
	err := Replay(path, opts, func([]byte) error { n++; return nil })
	return n, err
}

// Package snap implements the versioned binary snapshot format used by
// checkpoint/resume: a magic header, a format version, a sequence of
// tagged sections of varint-encoded integers and length-prefixed
// strings, and a trailing CRC-32 of everything written. Every
// checkpointed component of a simulated device (engine, object table,
// graph, scheduler, kernel, charger, radio, netd, baseband, trace
// series, workload hooks), the fleet's epoch records and the
// coordinator's journal records declare their section once, as one
// function over a Codec that Save runs through a Writer and Load runs
// through a Reader.
//
// The format is designed to fail loudly rather than restore a garbage
// device: a wrong magic, an unsupported version, a section tag out of
// order, a truncated stream, a checksum mismatch, or a structural value
// that differs from the rebuilt device's each produce a descriptive
// error, and the first error latches so callers check once at the end.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a Cinder device snapshot stream.
const Magic = "CNDSNAP1"

// Version is the current snapshot format version. Bump it whenever a
// section's field layout changes; Open rejects mismatches loudly.
// Version 2 dropped the engine/settle modes from the fleet's epoch
// header and renumbered the engine section's mode. Version 3 reordered
// the fleet's dead-device result record to carry its counters as one
// block. Version 4 writes the fleet's epoch header as the run identity
// block followed by the interval, epoch and range.
const Version uint32 = 4

// Errors the reader can return (wrapped with context).
var (
	// ErrMagic reports a stream that is not a snapshot at all.
	ErrMagic = errors.New("snap: bad magic (not a snapshot)")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("snap: unsupported snapshot version")
	// ErrChecksum reports payload corruption.
	ErrChecksum = errors.New("snap: checksum mismatch (corrupted snapshot)")
	// ErrSection reports a section tag other than the expected one —
	// either a corrupted stream or a reader/writer layout drift.
	ErrSection = errors.New("snap: unexpected section")
	// ErrTruncated reports a stream that ended mid-value.
	ErrTruncated = errors.New("snap: truncated snapshot")
)

// Writer serializes a snapshot. Errors latch: after the first failure
// every subsequent call is a no-op and Finish returns the error.
type Writer struct {
	buf []byte
	crc uint32
	err error
}

// NewWriter starts a snapshot stream with the magic and version header.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 512), crc: 0}
	w.buf = append(w.buf, Magic...)
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], Version)
	w.buf = append(w.buf, v[:]...)
	return w
}

// append adds raw bytes to the payload and the running checksum.
func (w *Writer) append(b []byte) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, b...)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b)
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.append(tmp[:n])
}

// I64 writes a signed (zig-zag) varint.
func (w *Writer) I64(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	w.append(tmp[:n])
}

// Bool writes a boolean as one varint.
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.append([]byte(s))
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.append(b)
}

// Section starts a named section. The matching Reader.Section call
// validates the tag, so layout drift between writer and reader is
// caught at the section boundary instead of surfacing as garbage
// integers later.
func (w *Writer) Section(tag string) { w.String(tag) }

// Finish appends the CRC-32 trailer and returns the complete snapshot.
func (w *Writer) Finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], w.crc)
	return append(w.buf, tmp[:]...), nil
}

// Reader deserializes a snapshot produced by Writer. Errors latch: the
// first failure poisons every subsequent read (which returns zero
// values), and Err returns it.
type Reader struct {
	buf []byte
	pos int
	end int // payload end (before the CRC trailer)
	err error
}

// Open validates the magic, version and checksum of a snapshot and
// returns a reader positioned at the first section.
func Open(b []byte) (*Reader, error) {
	header := len(Magic) + 4
	if len(b) < header+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrMagic, string(b[:len(Magic)]))
	}
	ver := binary.LittleEndian.Uint32(b[len(Magic) : len(Magic)+4])
	if ver != Version {
		return nil, fmt.Errorf("%w: snapshot is v%d, this build reads v%d", ErrVersion, ver, Version)
	}
	end := len(b) - 4
	want := binary.LittleEndian.Uint32(b[end:])
	if got := crc32.ChecksumIEEE(b[header:end]); got != want {
		return nil, fmt.Errorf("%w: crc %08x, want %08x", ErrChecksum, got, want)
	}
	return &Reader{buf: b, pos: header, end: end}, nil
}

// fail latches the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:r.end])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad uvarint at offset %d", ErrTruncated, r.pos))
		return 0
	}
	r.pos += n
	return v
}

// I64 reads a signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:r.end])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad varint at offset %d", ErrTruncated, r.pos))
		return 0
	}
	r.pos += n
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U64() != 0 }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U64())
	if r.err != nil {
		return ""
	}
	if n < 0 || r.pos+n > r.end {
		r.fail(fmt.Errorf("%w: string of %d bytes at offset %d", ErrTruncated, n, r.pos))
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := int(r.U64())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > r.end {
		r.fail(fmt.Errorf("%w: blob of %d bytes at offset %d", ErrTruncated, n, r.pos))
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Section validates that the next section tag is exactly `tag`.
func (r *Reader) Section(tag string) {
	got := r.String()
	if r.err == nil && got != tag {
		r.fail(fmt.Errorf("%w: want %q, found %q", ErrSection, tag, got))
	}
}

// Close verifies the stream was fully consumed and returns the latched
// error, if any. A snapshot with trailing unread payload means the
// writer recorded more state than the reader restored — a layout drift
// that must fail loudly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != r.end {
		return fmt.Errorf("%w: %d unread payload bytes", ErrSection, r.end-r.pos)
	}
	return nil
}

package snap

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Section("alpha")
	w.U64(0)
	w.U64(1 << 60)
	w.I64(-42)
	w.Bool(true)
	w.String("hello")
	w.Bytes([]byte{1, 2, 3})
	w.Section("beta")
	w.I64(7)
	b := w.Finish()

	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	r.Section("alpha")
	if got := r.U64(); got != 0 {
		t.Fatalf("u64: %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Fatalf("u64: %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Fatalf("i64: %d", got)
	}
	if !r.Bool() {
		t.Fatal("bool")
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("string: %q", got)
	}
	if got := r.Bytes(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("bytes: %v", got)
	}
	r.Section("beta")
	if got := r.I64(); got != 7 {
		t.Fatalf("i64: %d", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagicFailsLoudly(t *testing.T) {
	b := []byte("NOTASNAPxxxxyyyyzzzz")
	_, err := Open(b)
	if !errors.Is(err, ErrMagic) {
		t.Fatalf("want ErrMagic, got %v", err)
	}
	if !strings.Contains(err.Error(), "not a snapshot") {
		t.Fatalf("error not descriptive: %v", err)
	}
}

func TestWrongVersionFailsLoudly(t *testing.T) {
	w := NewWriter()
	w.U64(1)
	b := w.Finish()
	b[len(Magic)] = 99 // corrupt the version field
	_, err := Open(b)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestCorruptPayloadFailsLoudly(t *testing.T) {
	w := NewWriter()
	w.Section("s")
	w.U64(123456)
	b := w.Finish()
	b[len(b)-6] ^= 0xFF // flip a payload bit
	_, err := Open(b)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

func TestTruncatedFailsLoudly(t *testing.T) {
	if _, err := Open([]byte("CN")); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestWrongSectionFailsLoudly(t *testing.T) {
	w := NewWriter()
	w.Section("alpha")
	b := w.Finish()
	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	r.Section("beta")
	if err := r.err; !errors.Is(err, ErrSection) {
		t.Fatalf("want ErrSection, got %v", err)
	}
	if !strings.Contains(r.err.Error(), `"beta"`) || !strings.Contains(r.err.Error(), `"alpha"`) {
		t.Fatalf("error not descriptive: %v", r.err)
	}
}

func TestUnreadTrailerFailsLoudly(t *testing.T) {
	w := NewWriter()
	w.U64(1)
	w.U64(2)
	b := w.Finish()
	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.U64()
	if err := r.Close(); !errors.Is(err, ErrSection) {
		t.Fatalf("want ErrSection for unread payload, got %v", err)
	}
}

// TestFrameRoundTripAndTruncation: frames written with AppendFrame read
// back in order with their kinds, the stream ends with a bare io.EOF on
// a frame boundary, and a stream cut inside a frame's length or payload
// is ErrTruncated rather than a short frame.
func TestFrameRoundTripAndTruncation(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 300) // a two-byte length varint
	var b []byte
	b = AppendFrame(b, 0, []byte("header"))
	b = AppendFrame(b, 2, nil)
	b = AppendFrame(b, 1, big)
	r := bytes.NewReader(b)
	for i, want := range []struct {
		kind int
		blob []byte
	}{{0, []byte("header")}, {2, []byte{}}, {1, big}} {
		kind, blob, err := ReadFrame(r)
		if err != nil || kind != want.kind || !bytes.Equal(blob, want.blob) {
			t.Fatalf("frame %d: kind %d, %d bytes, %v; want kind %d, %d bytes",
				i, kind, len(blob), err, want.kind, len(want.blob))
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}

	last := AppendFrame(nil, 1, big)
	for _, tc := range []struct {
		name string
		cut  int
		want string
	}{
		{"truncated length", 2, "frame length"},
		{"truncated payload", len(last) - 1, "frame payload (299 of 300 bytes)"},
	} {
		_, _, err := ReadFrame(bytes.NewReader(last[:tc.cut]))
		if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrTruncated naming %q", tc.name, err, tc.want)
		}
	}
}

package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// maxFrame bounds a frame's declared payload length, so a corrupted
// length fails as a bad frame instead of as a huge allocation. The
// largest frames, journaled partials, are far smaller: the delivery
// transport refuses request bodies above 64 MiB.
const maxFrame = 64 << 20

// AppendFrame appends one frame — uvarint kind, uvarint length, blob —
// to dst: the container epoch files and the coordinator's journal
// wrap snapshots in.
func AppendFrame(dst []byte, kind int, blob []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(kind))
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	return append(dst, blob...)
}

// FrameReader is a frame source, such as a bufio or bytes Reader.
type FrameReader interface {
	io.Reader
	io.ByteReader
}

// ReadFrame reads the next frame. It returns io.EOF itself only when r
// ends exactly on a frame boundary; a stream that ends inside a frame
// is ErrTruncated, naming the part that was cut.
func ReadFrame(r FrameReader) (kind int, blob []byte, err error) {
	k, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, frameErr("kind", err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, frameErr("length", err)
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("snap: frame length %d exceeds %d bytes", n, maxFrame)
	}
	blob = make([]byte, n)
	if got, err := io.ReadFull(r, blob); err != nil {
		return 0, nil, frameErr(fmt.Sprintf("payload (%d of %d bytes)", got, n), err)
	}
	return int(k), blob, nil
}

// frameErr classifies a failed frame read: running out of input is
// truncation; anything else is passed on.
func frameErr(part string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: frame %s", ErrTruncated, part)
	}
	return fmt.Errorf("snap: frame %s: %w", part, err)
}

package coord

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/snap"
)

// The coordinator's durable job journal. Every state transition the
// coordinator accepts — the job spec, each shard grant, heartbeat,
// genuine failure, and completed partial — is appended to one file in
// the job's shared checkpoint dir before the in-memory state mutates
// (write-ahead), so a coordinator killed at any instant can be
// restarted with `cinder-coord serve -recover` and replay the journal
// into identical lease/attempt state. Records reuse the internal/snap
// tagged-section + CRC-32 format inside snap's frames, the container
// the fleet's epoch files use too, so a torn final append is detected
// exactly like a torn epoch write.
//
// The write-ahead discipline makes any valid journal prefix a correct
// resume point: an operation that was journaled but whose in-memory
// effect (or client acknowledgement) was lost is simply replayed, and
// an operation that was lost entirely re-happens through the normal
// machinery — lease expiry regrants the shard, and the runner's
// retried Complete/Fail delivery is deduplicated server-side. Lease
// expiries and terminal failures are deliberately not journaled: both
// are re-derived from the clock and MaxAttempts during replay.

// journalName is the journal's filename inside the checkpoint dir.
const journalName = "coord-journal.bin"

// Journal record kinds (the frame header byte).
const (
	jrSubmit   = 1 // job spec (wire JSON)
	jrGrant    = 2 // shard leased: shard, runner, attempt (0-based), resume
	jrBeat     = 3 // progress: shard, devicesDone, simDoneMS, lastCheckpoint
	jrComplete = 4 // shard done: shard, runner, partial (wire JSON)
	jrFail     = 5 // attempt failed: shard, runner, attempt (0-based), msg
)

// jrTags are the snap section tags cross-checking each frame's kind.
var jrTags = map[int]string{
	jrSubmit: "submit", jrGrant: "grant", jrBeat: "beat", jrComplete: "complete", jrFail: "fail",
}

// jrec is one journal record, in memory. Only the fields of its kind
// are meaningful.
type jrec struct {
	kind    int
	job     []byte // jrSubmit: the job's wire JSON
	shard   int
	runner  string
	attempt int  // jrGrant/jrFail: the lease's 0-based attempt key
	resume  bool // jrGrant

	devicesDone    int   // jrBeat
	simDoneMS      int64 // jrBeat
	lastCheckpoint int   // jrBeat

	partial []byte // jrComplete: the partial's wire JSON
	msg     string // jrFail
}

// encodeJrec renders one record as a framed snap blob.
func encodeJrec(rec jrec) ([]byte, error) {
	w := snap.NewWriter()
	w.Section(jrTags[rec.kind])
	switch rec.kind {
	case jrSubmit:
		w.Bytes(rec.job)
	case jrGrant:
		w.U64(uint64(rec.shard))
		w.String(rec.runner)
		w.U64(uint64(rec.attempt))
		w.Bool(rec.resume)
	case jrBeat:
		w.U64(uint64(rec.shard))
		w.U64(uint64(rec.devicesDone))
		w.I64(rec.simDoneMS)
		w.I64(int64(rec.lastCheckpoint))
	case jrComplete:
		w.U64(uint64(rec.shard))
		w.String(rec.runner)
		w.Bytes(rec.partial)
	case jrFail:
		w.U64(uint64(rec.shard))
		w.String(rec.runner)
		w.U64(uint64(rec.attempt))
		w.String(rec.msg)
	default:
		return nil, fmt.Errorf("coord: unknown journal record kind %d", rec.kind)
	}
	blob, err := w.Finish()
	if err != nil {
		return nil, err
	}
	return snap.AppendFrame(nil, rec.kind, blob), nil
}

// decodeJrec parses one frame's snap blob (CRC already covers it). The
// blob is the frame's own copy, so the record may keep slices of it.
func decodeJrec(kind int, blob []byte) (jrec, error) {
	r, err := snap.Open(blob)
	if err != nil {
		return jrec{}, err
	}
	r.Section(jrTags[kind])
	rec := jrec{kind: kind}
	switch kind {
	case jrSubmit:
		rec.job = r.Bytes()
	case jrGrant:
		rec.shard = int(r.U64())
		rec.runner = r.String()
		rec.attempt = int(r.U64())
		rec.resume = r.Bool()
	case jrBeat:
		rec.shard = int(r.U64())
		rec.devicesDone = int(r.U64())
		rec.simDoneMS = r.I64()
		rec.lastCheckpoint = int(r.I64())
	case jrComplete:
		rec.shard = int(r.U64())
		rec.runner = r.String()
		rec.partial = r.Bytes()
	case jrFail:
		rec.shard = int(r.U64())
		rec.runner = r.String()
		rec.attempt = int(r.U64())
		rec.msg = r.String()
	default:
		return jrec{}, fmt.Errorf("coord: unknown journal record kind %d", kind)
	}
	if err := r.Close(); err != nil {
		return jrec{}, err
	}
	return rec, nil
}

// journal is an open, appendable journal file.
type journal struct {
	f    *os.File
	path string
}

// openJournal opens the journal at path for appending: a fresh one
// (os.O_CREATE|os.O_TRUNC, discarding any previous file — the caller
// decides whether that is allowed) or, after recovery replayed it, the
// existing one (os.O_APPEND).
func openJournal(path string, flag int) (*journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("coord: open journal: %w", err)
	}
	return &journal{f: f, path: path}, nil
}

// append writes one record. With sync, the record is fsynced before
// returning — required for every record written ahead of a state
// mutation. Heartbeats skip the sync: losing a beat to a crash only
// costs a stale progress counter, never correctness.
func (j *journal) append(rec jrec, sync bool) error {
	frame, err := encodeJrec(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("coord: journal append: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("coord: journal sync: %w", err)
		}
	}
	return nil
}

func (j *journal) close() error { return j.f.Close() }

// readJournal parses the longest valid record prefix of the journal at
// path. It returns the records, the byte offset where the valid prefix
// ends, and — when the file continues past that offset — the error
// describing the torn or corrupt tail. A nil error means the whole
// file parsed.
func readJournal(path string) ([]jrec, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var recs []jrec
	r := bytes.NewReader(b)
	for {
		start := r.Size() - int64(r.Len())
		kind, blob, err := snap.ReadFrame(r)
		if err == io.EOF {
			return recs, start, nil
		}
		var rec jrec
		if err == nil {
			rec, err = decodeJrec(kind, blob)
		}
		if err != nil {
			return recs, start, fmt.Errorf("coord: journal: frame at offset %d: %w", start, err)
		}
		recs = append(recs, rec)
	}
}

// JournalPath returns the journal file path for a checkpoint dir (for
// tooling and tests).
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

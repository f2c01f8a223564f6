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
// into identical lease/attempt state. Each record is one snap section,
// declared once by jrec.codec for both the append and the replay, inside
// snap's frames — the container the fleet's epoch files use too, so a
// torn final append is detected exactly like a torn epoch write.
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

// codec saves or loads the fields of the record's kind, under the
// kind's section tag. The caller checks the kind first.
func (rec *jrec) codec(c *snap.Codec) {
	c.Section(jrTags[rec.kind])
	switch rec.kind {
	case jrSubmit:
		c.Bytes(&rec.job)
	case jrGrant:
		snap.Uint(c, &rec.shard)
		c.String(&rec.runner)
		snap.Uint(c, &rec.attempt)
		c.Bool(&rec.resume)
	case jrBeat:
		snap.Uint(c, &rec.shard)
		snap.Uint(c, &rec.devicesDone)
		snap.Int(c, &rec.simDoneMS)
		snap.Int(c, &rec.lastCheckpoint)
	case jrComplete:
		snap.Uint(c, &rec.shard)
		c.String(&rec.runner)
		c.Bytes(&rec.partial)
	case jrFail:
		snap.Uint(c, &rec.shard)
		c.String(&rec.runner)
		snap.Uint(c, &rec.attempt)
		c.String(&rec.msg)
	}
}

// checkKind refuses a record kind the journal does not define.
func checkKind(kind int) error {
	if _, ok := jrTags[kind]; !ok {
		return fmt.Errorf("coord: unknown journal record kind %d", kind)
	}
	return nil
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
	if err := checkKind(rec.kind); err != nil {
		return err
	}
	blob, err := snap.Save(rec.codec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(snap.AppendFrame(nil, rec.kind, blob)); err != nil {
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
		rec := jrec{kind: kind}
		if err == nil {
			err = checkKind(kind)
		}
		if err == nil {
			// The blob is the frame's own copy, so the record may keep
			// slices of it.
			err = snap.Load(blob, rec.codec)
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

package fleet

import (
	"fmt"
	"sync"

	"repro/internal/units"
)

// meter tracks a run's progress feed: per-device and per-checkpoint
// callbacks into Config.Progress, all from the reducing goroutine.
type meter struct {
	emit func(Progress) error
	cur  Progress
}

func newMeter(cfg *Config, lo, hi, epochs int) *meter {
	return &meter{
		emit: cfg.Progress,
		cur: Progress{
			Lo: lo, Hi: hi, Epochs: epochs,
			Horizon:        cfg.Duration,
			LastCheckpoint: -1,
		},
	}
}

// pass positions the meter at the start of epoch e covering simulated
// span [start, end) per device.
func (m *meter) pass(e int, start, end units.Time) {
	m.cur.Epoch, m.cur.PassStart, m.cur.PassEnd = e, start, end
	m.cur.Done = 0
	m.cur.Checkpointed = false
	if e > 0 {
		m.cur.LastCheckpoint = e - 1
	}
}

// device records one reduced device.
func (m *meter) device() error {
	m.cur.Done++
	m.cur.Checkpointed = false
	if m.emit == nil {
		return nil
	}
	return m.emit(m.cur)
}

// checkpoint records epoch e's file publication.
func (m *meter) checkpoint(e int) error {
	m.cur.LastCheckpoint = e
	m.cur.Checkpointed = true
	if m.emit == nil {
		return nil
	}
	return m.emit(m.cur)
}

// outcome is one device's product from a pass: a final result, or (on
// checkpointing passes) a snapshot-or-result blob, classified by kind,
// to carry into the next epoch.
type outcome struct {
	res  DeviceResult
	blob []byte
	kind int
	err  error
}

// pass runs device indexes [lo, hi) through the worker pool. feed, when
// non-nil, supplies each device's input record, its kind and blob, and
// is called from the dispatch side strictly in index order (so it can
// stream a file); reduce is called strictly in index order as results
// stream back.
//
// The admission window bounds how far any device index may run ahead of
// the reduction frontier, which in turn bounds the reorder ring: index
// i is dispatched only once the frontier has passed i−window, so at
// most `window` results are ever buffered and the result channel can
// never fill with the frontier index still outstanding (the no-deadlock
// argument).
func pass(cfg Config, workers, lo, hi int,
	feed func(idx int) (kind int, in []byte, err error),
	work func(idx, kind int, in []byte, rg *rig) outcome,
	reduce func(idx int, o outcome) error) error {

	n := hi - lo
	if n <= 0 {
		return fmt.Errorf("fleet: empty device range [%d,%d)", lo, hi)
	}
	if workers > n {
		workers = n
	}
	window := 4 * workers
	if window > n {
		window = n
	}
	type slot struct {
		kind int
		in   []byte
		out  outcome
		done bool
	}
	ring := make([]slot, window)
	indexCh := make(chan int, window)
	resultCh := make(chan int, window)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rg rig
			for i := range indexCh {
				// The ring slot for index i is owned by this worker
				// until the reducer receives i; the channel send is the
				// happens-before edge.
				s := &ring[(i-lo)%window]
				s.out = work(i, s.kind, s.in, &rg)
				resultCh <- i
			}
		}()
	}

	var feedErr error
	dispatch := func(i int) bool {
		s := &ring[(i-lo)%window]
		s.kind, s.in = 0, nil
		if feed != nil && feedErr == nil {
			s.kind, s.in, feedErr = feed(i)
			if feedErr != nil {
				// Dispatch anyway with nil input; the worker result is
				// discarded once firstErr is set below.
				s.kind, s.in = 0, nil
			}
		}
		indexCh <- i
		return true
	}

	dispatched := lo
	for ; dispatched < lo+window; dispatched++ {
		dispatch(dispatched)
	}
	closed := false
	closeIndex := func() {
		if !closed {
			closed = true
			close(indexCh)
		}
	}
	if dispatched == hi {
		closeIndex()
	}

	// The reduction loop drains every dispatched index, but once an
	// error (a failed device, a failed reduce, or an aborting Progress
	// callback) is recorded it stops dispatching new work, so an abort
	// costs at most the in-flight window rather than the whole range.
	var firstErr error
	if feedErr != nil {
		firstErr = feedErr
	}
	for frontier := lo; frontier < dispatched; {
		i := <-resultCh
		ring[(i-lo)%window].done = true
		for frontier < dispatched && ring[(frontier-lo)%window].done {
			s := &ring[(frontier-lo)%window]
			if firstErr == nil && feedErr != nil {
				firstErr = feedErr
			}
			if s.out.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("fleet: device %d: %w", frontier, s.out.err)
			} else if firstErr == nil {
				if err := reduce(frontier, s.out); err != nil {
					firstErr = err
				}
			}
			*s = slot{}
			frontier++
			if dispatched < hi && firstErr == nil {
				dispatch(dispatched)
				dispatched++
			}
			if dispatched == hi || firstErr != nil {
				closeIndex()
			}
		}
	}
	closeIndex()
	wg.Wait()
	return firstErr
}

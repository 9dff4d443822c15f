package onex

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
)

// streamStallTimeout bounds how long one Update may wait for its consumer.
// The walk holds the DB's read lock (like Find), so an abandoned consumer
// must not be able to pin it forever: a writer queued behind a pinned read
// lock would block every later query on the DB. A var, not a const, so
// tests can shrink it.
var streamStallTimeout = 30 * time.Second

// ErrStreamStalled aborts an Exploration whose consumer stopped taking
// updates: no update was received within the stall bound and the walk was
// cancelled to release its resources (and the DB read lock).
var ErrStreamStalled = errors.New("onex: Stream: consumer did not take an update within the stall bound")

// Update is one snapshot of a progressive query: the current answer, how
// much of it is already provably final, and the work done so far. A
// Stream emits the approximate top-k first (the same result Find returns
// in approx mode), then one Update per certified refinement wave, and
// terminates with a Final update whose Matches, Query, and Stats equal
// the exact-mode Find result.
type Update struct {
	// Seq numbers the updates of one exploration, starting at 0 (the
	// approximate answer).
	Seq int `json:"seq"`
	// Matches is the current top-k, best first. Intermediate updates omit
	// warping paths (Match.Path); the final update carries them.
	Matches []Match `json:"matches"`
	// Certified is parallel to Matches: Certified[i] reports that
	// Matches[i] provably belongs to the final exact answer with its
	// exact distance — no unrefined group can contain a better candidate.
	// The approximate update (Seq 0) certifies nothing; certification
	// starts at the first wave. It is monotone (once true it stays true)
	// and every flag is true in the final update.
	Certified []bool `json:"certified"`
	// Wave is the refinement wave this update closes: 0 for the
	// approximate phase, then 1..N.
	Wave int `json:"wave"`
	// GroupsRemaining counts candidate groups not yet refined or
	// certified-skipped; it reaches 0 at the final update.
	GroupsRemaining int `json:"groups_remaining"`
	// Final marks the terminating update.
	Final bool `json:"final"`
	// Query echoes the resolved request (identical in every update).
	Query Query `json:"query"`
	// Stats is the cumulative search work behind this snapshot.
	Stats QueryStats `json:"stats"`
}

// Exploration is a live progressive query: a handle over the stream of
// Updates one Stream call emits. The zero value is not usable; Stream
// constructs it.
//
// The consuming pattern:
//
//	x, err := db.Stream(ctx, q)
//	if err != nil { ... }
//	defer x.Close()
//	for u := range x.Updates() {
//	    render(u) // first the approximate answer, then each wave
//	}
//	if err := x.Err(); err != nil { ... }
//
// Updates are delivered synchronously from the search: the walk blocks on
// an unbuffered channel until the consumer takes each snapshot, so a slow
// consumer applies backpressure to the search instead of accumulating
// stale snapshots. The wait is bounded: a consumer that takes no update
// for 30s is treated as gone — the walk aborts, the stream closes, and
// Err reports ErrStreamStalled (the walk holds the DB read lock, which an
// abandoned consumer must not pin forever). Cancelling the context passed
// to Stream (or calling Close) stops the walk within one pruning round.
type Exploration struct {
	updates chan Update
	cancel  context.CancelFunc
	once    sync.Once

	// written by the search goroutine before updates closes; the channel
	// close is the synchronization point.
	err   error
	final Update
	done  bool
}

// Updates returns the stream. It is closed after the final update — or
// early, when the walk fails or is cancelled; check Err afterwards.
func (x *Exploration) Updates() <-chan Update { return x.updates }

// Err reports how the stream ended: nil after a final update, ctx.Err()
// after a cancellation, or the search error. Only valid once Updates is
// closed (e.g. after the range loop ends or Wait returns).
func (x *Exploration) Err() error { return x.err }

// Close cancels the underlying walk and drains the stream. It is
// idempotent and safe to call at any point — including after the stream
// completed normally, making `defer x.Close()` the standard cleanup.
func (x *Exploration) Close() {
	x.once.Do(func() {
		x.cancel()
		for range x.updates {
		}
	})
}

// Wait drains the stream and returns the final update as a Result — the
// "run the progressive pipeline one-shot" spelling, equivalent to Find in
// exact mode. It returns the stream error when the walk failed or was
// cancelled before finishing.
func (x *Exploration) Wait() (Result, error) {
	for range x.updates {
	}
	if x.err != nil {
		return Result{}, x.err
	}
	if !x.done {
		return Result{}, errors.New("onex: Stream: stream ended without a final update")
	}
	return Result{Matches: x.final.Matches, Query: x.final.Query, Stats: x.final.Stats}, nil
}

// Stream executes a Query progressively: it returns immediately with an
// Exploration whose Updates channel delivers the approximate top-k as
// soon as it is known, then one refined snapshot per certified wave, and
// finally the exact answer. Stream always refines to the certified-exact
// result regardless of Query.Mode (the resolved query echoes ModeExact);
// use Find for one-shot approximate answers. Range queries (MaxDist > 0)
// are not streamable — their exact walk has no approximate phase —
// and are rejected.
//
// Validation errors (unknown series, contradictory fields) are returned
// synchronously; errors after the stream starts — including ctx
// cancellation — surface through Exploration.Err. The search holds the DB's read lock for its whole run, exactly like Find:
// concurrent queries proceed, AddSeries waits.
func (db *DB) Stream(ctx context.Context, q Query) (*Exploration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q.MaxDist > 0 {
		return nil, errors.New("onex: Stream: range queries (MaxDist > 0) are not streamable; use Find")
	}
	// The stream's whole point is the approximate-then-exact refinement,
	// so the target mode is always exact.
	q.Mode = ModeExact

	// Validate synchronously so malformed queries fail at the call site,
	// not through Err. The goroutine re-resolves under its own lock
	// acquisition: series can only be added, never removed, so a query
	// valid now stays valid (and a failure there still surfaces via Err).
	db.mu.RLock()
	_, err := db.resolveQuery(q)
	if err == nil {
		err = db.checkValuesLocked()
	}
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}

	sctx, cancel := context.WithCancel(ctx)
	x := &Exploration{updates: make(chan Update), cancel: cancel}
	go func() {
		defer close(x.updates)
		defer cancel()
		start := time.Now()
		db.mu.RLock()
		defer db.mu.RUnlock()
		// Stream returned before this goroutine took the read lock, so a
		// concurrent Close may have released an mmap-backed DB's mapping in
		// the gap; re-check before the walk dereferences any values.
		if err := db.checkValuesLocked(); err != nil {
			x.err = err
			return
		}
		rq, err := db.resolveQuery(q)
		if err != nil {
			x.err = err
			return
		}
		stalled := false
		fo := rq.fo
		fo.Progress = func(s core.Snapshot) {
			// The exact conversion Find applies, so the final update equals
			// the one-shot Find result field for field.
			res := db.publicResult(rq.eff, s.Matches, s.Stats, start)
			u := Update{
				Seq:             s.Seq,
				Matches:         res.Matches,
				Certified:       s.Certified,
				Wave:            s.Wave,
				GroupsRemaining: s.GroupsRemaining,
				Final:           s.Final,
				Query:           res.Query,
				Stats:           res.Stats,
			}
			if s.Final {
				x.final, x.done = u, true
			}
			if stalled {
				return // already aborting; the walk exits at its next poll
			}
			stall := time.NewTimer(streamStallTimeout)
			defer stall.Stop()
			select {
			case x.updates <- u:
			case <-sctx.Done():
				// The consumer is gone; the walk notices sctx at its next
				// poll and aborts within one pruning round.
			case <-stall.C:
				// The consumer stopped taking updates without closing the
				// stream. Cancel the walk rather than pin the DB read lock
				// behind a dead peer; Err reports the stall distinctly.
				stalled = true
				cancel()
			}
		}
		_, err = db.engine.Find(sctx, rq.qvec, fo)
		if stalled {
			// The consumer missed at least the update being sent when the
			// stall fired, so the stream is truncated from its point of
			// view even if the walk ran to completion (a stall on the
			// terminating snapshot leaves no ctx poll to abort on).
			// Report the stall unless a more specific error occurred.
			if err == nil || errors.Is(err, context.Canceled) {
				err = ErrStreamStalled
			}
			x.done = false
		}
		x.err = err
	}()
	return x, nil
}

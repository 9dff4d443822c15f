// Package replica implements the follower half of ONEX's leader/follower
// replication: read replicas that bootstrap from a leader snapshot and
// stay current by tailing the leader's write-ahead log over HTTP.
//
// The protocol rides on the persistence formats from internal/store, so a
// follower decodes exactly the bytes recovery would replay locally:
//
//   - GET /replication/v1/datasets/{name}/snapshot streams the leader's
//     current snapshot file verbatim (version inside the META section);
//   - GET /replication/v1/datasets/{name}/wal?from=S&wait=D long-polls for
//     CRC-framed WAL records with seq > S. 200 carries a WAL-magic-framed
//     batch (decoded with store.DecodeWAL — same CRC and seq-contiguity
//     checks as crash recovery), 204 means "caught up, nothing new within
//     the wait", and 410 Gone is the compaction fence: the requested range
//     was folded into a newer snapshot, re-ship it.
//
// The seq/version discipline makes this correct: a snapshot at version V
// plus records V+1, V+2, ... is the leader's exact mutation history, so a
// follower that applies them in order is bit-identical to the leader at
// every version it passes through. Compaction on the leader only moves the
// snapshot/WAL boundary; a follower whose cursor predates the boundary is
// fenced rather than served a gap.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/fsutil"
	"repro/internal/store"
	"repro/onex"
)

// Protocol constants shared by the leader (internal/server) and follower
// sides. The leader-seq header rides on every WAL response — including 204
// and 410 — so the follower can always measure its lag.
const (
	// HeaderLeaderSeq reports the leader's newest sequence number.
	HeaderLeaderSeq = "X-Onex-Leader-Seq"
	// HeaderSnapshotVersion is the advisory version on snapshot responses
	// (the snapshot's META section is authoritative).
	HeaderSnapshotVersion = "X-Onex-Snapshot-Version"
	// HeaderLeader is set on 503 write rejections by a serving follower,
	// pointing the client at the leader that accepts writes.
	HeaderLeader = "X-Onex-Leader"
)

// SnapshotPath returns the leader snapshot endpoint path for a dataset.
func SnapshotPath(dataset string) string {
	return "/replication/v1/datasets/" + url.PathEscape(dataset) + "/snapshot"
}

// WALPath returns the leader WAL-tail endpoint path for a dataset.
func WALPath(dataset string) string {
	return "/replication/v1/datasets/" + url.PathEscape(dataset) + "/wal"
}

// Options tunes a Follower. The zero value is ready to use.
type Options struct {
	// Client is the HTTP client for leader requests. nil uses a private
	// client with no global timeout (per-request contexts bound each
	// call, sized to the long-poll wait).
	Client *http.Client
	// SpoolDir, when set, routes snapshot bootstraps through the mmap
	// path: each shipped snapshot is streamed to <SpoolDir>/<dataset>.snap
	// (atomic temp+rename, never held in memory) and the follower DB is
	// opened with onex.Config.MmapValues, so series values are zero-copy
	// views over the spooled file — a follower of a beyond-RAM leader
	// stays beyond-RAM instead of materializing the dataset on its heap.
	// Re-bootstraps overwrite the spool file by rename and Close the
	// superseded DB, releasing its mapping once in-flight scans finish
	// (queries that still hold the old pointer then fail with
	// onex.ErrMmapClosed). Empty keeps the in-memory decode.
	SpoolDir string
	// PollWait is the long-poll duration asked of the leader (how long a
	// WAL request may block waiting for new records). 0 means 20s.
	PollWait time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff. 0 means 100ms / 5s.
	BackoffMin, BackoffMax time.Duration
	// OnDB is called with the freshly built DB after every bootstrap —
	// the initial snapshot ship and every fence-triggered re-ship. A
	// serving follower uses it to swap the replica into its dataset map.
	OnDB func(*onex.DB)
	// Logf, when set, receives follower lifecycle messages (bootstrap,
	// fence, reconnect). nil is silent.
	Logf func(format string, args ...any)
}

// Status is a point-in-time view of a follower, surfaced by /healthz and
// the onex_replica_* metric families.
type Status struct {
	Dataset string `json:"dataset"`
	Leader  string `json:"leader"`
	// State is "bootstrapping" (shipping a snapshot), "streaming"
	// (tailing the WAL), or "reconnecting" (backing off after an error).
	State string `json:"state"`
	// AppliedSeq is the follower's version: every leader mutation up to
	// and including this sequence has been applied.
	AppliedSeq uint64 `json:"applied_seq"`
	// LeaderSeq is the leader's newest sequence as of the last response.
	LeaderSeq uint64 `json:"leader_seq"`
	// LagRecords = LeaderSeq - AppliedSeq (0 when caught up).
	LagRecords uint64 `json:"lag_records"`
	// SecondsSinceRecord is the age of the last applied record (-1 before
	// any). Low lag with a stale record age just means an idle leader;
	// growing lag with a stale age means the follower is stuck.
	SecondsSinceRecord float64 `json:"seconds_since_record"`
	// Reconnects counts error-triggered reconnections (not fences).
	Reconnects uint64 `json:"reconnects"`
	// SnapshotsShipped counts full snapshot bootstraps (1 = initial only;
	// more means compaction fences forced re-ships).
	SnapshotsShipped uint64 `json:"snapshots_shipped"`
	// RecordsApplied counts WAL records applied since the follower
	// started (across re-bootstraps).
	RecordsApplied uint64 `json:"records_applied"`
	// LastError is the most recent connection or protocol error ("" when
	// healthy).
	LastError string `json:"last_error,omitempty"`
}

// errFenced signals a 410 from the WAL endpoint: not a failure, an
// instruction to re-bootstrap from a fresh snapshot.
var errFenced = errors.New("replica: fenced (leader compacted past our cursor)")

// Follower replicates one leader dataset into an in-process read-only
// onex.DB. Safe for concurrent use: Run drives replication while DB and
// Status serve readers.
type Follower struct {
	leader  string // base URL, no trailing slash
	dataset string
	opt     Options
	client  *http.Client

	mu         sync.Mutex
	db         *onex.DB
	st         Status
	lastRecord time.Time
}

// New prepares a follower for one dataset of the leader at baseURL (e.g.
// "http://leader:8080"). Call Run to start replicating.
func New(baseURL, dataset string, opt Options) *Follower {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	if opt.PollWait <= 0 {
		opt.PollWait = 20 * time.Second
	}
	if opt.BackoffMin <= 0 {
		opt.BackoffMin = 100 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 5 * time.Second
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Follower{
		leader:  baseURL,
		dataset: dataset,
		opt:     opt,
		client:  client,
		st:      Status{Dataset: dataset, Leader: baseURL, State: "bootstrapping", SecondsSinceRecord: -1},
	}
}

// DB returns the follower's current database (nil before the first
// bootstrap completes). The pointer is swapped on every snapshot re-ship;
// callers serving queries should fetch it per request, as a serving
// follower's OnDB wiring does.
func (f *Follower) DB() *onex.DB {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db
}

// Status returns the follower's current replication status.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	if st.LeaderSeq > st.AppliedSeq {
		st.LagRecords = st.LeaderSeq - st.AppliedSeq
	}
	if !f.lastRecord.IsZero() {
		st.SecondsSinceRecord = time.Since(f.lastRecord).Seconds()
	}
	return st
}

// WaitCaughtUp blocks until the follower has applied every record up to
// seq (AppliedSeq >= seq) or ctx expires. A test and benchmark
// convenience: convergence is "WaitCaughtUp(leader.Version()) returns".
func (f *Follower) WaitCaughtUp(ctx context.Context, seq uint64) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		f.mu.Lock()
		applied := f.st.AppliedSeq
		f.mu.Unlock()
		if applied >= seq {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.opt.Logf != nil {
		f.opt.Logf(format, args...)
	}
}

func (f *Follower) setState(state string) {
	f.mu.Lock()
	f.st.State = state
	f.mu.Unlock()
}

func (f *Follower) setError(err error) {
	f.mu.Lock()
	if err == nil {
		f.st.LastError = ""
	} else {
		f.st.LastError = err.Error()
	}
	f.mu.Unlock()
}

// Run replicates until ctx is cancelled: bootstrap from a snapshot, tail
// the WAL, re-bootstrap on compaction fences, and reconnect with jittered
// exponential backoff on errors. The returned error is ctx.Err() — a
// follower never gives up on a flaky leader, it keeps retrying, because
// serving slightly stale reads beats serving none.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.opt.BackoffMin
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := f.bootstrap(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			f.reconnect(ctx, err, &backoff)
			continue
		}
		backoff = f.opt.BackoffMin
		err := f.tail(ctx)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, errFenced):
			// Not a failure: the leader compacted past our cursor. Loop
			// straight into a fresh bootstrap.
			f.logf("replica %s: %v; re-shipping snapshot", f.dataset, err)
		default:
			f.reconnect(ctx, err, &backoff)
		}
	}
}

// reconnect records the error and sleeps the jittered exponential backoff.
func (f *Follower) reconnect(ctx context.Context, err error, backoff *time.Duration) {
	f.setError(err)
	f.setState("reconnecting")
	f.mu.Lock()
	f.st.Reconnects++
	f.mu.Unlock()
	// Full jitter: sleep uniformly in [0, backoff) so a fleet of followers
	// losing one leader does not reconnect in lockstep.
	d := time.Duration(rand.Int63n(int64(*backoff) + 1))
	f.logf("replica %s: %v; retrying in %v", f.dataset, err, d.Round(time.Millisecond))
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
	*backoff *= 2
	if *backoff > f.opt.BackoffMax {
		*backoff = f.opt.BackoffMax
	}
}

// bootstrap ships the leader's current snapshot and swaps in a fresh DB.
func (f *Follower) bootstrap(ctx context.Context) error {
	f.setState("bootstrapping")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.leader+SnapshotPath(f.dataset), nil)
	if err != nil {
		return fmt.Errorf("replica: snapshot request: %w", err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: snapshot: leader answered %s%s", resp.Status, bodyHint(resp.Body))
	}
	var db *onex.DB
	var size int64
	if f.opt.SpoolDir != "" {
		// Beyond-RAM path: stream the snapshot to disk and mmap it, so the
		// shipped dataset is never resident in this process's heap.
		path := f.spoolPath()
		if err := fsutil.WriteFileAtomic(path, func(w io.Writer) error {
			n, err := io.Copy(w, resp.Body)
			size = n
			return err
		}); err != nil {
			return fmt.Errorf("replica: spool snapshot: %w", err)
		}
		db, err = onex.OpenReplicaFile(path, onex.Config{MmapValues: true})
		if err != nil {
			return fmt.Errorf("replica: %w", err)
		}
	} else {
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("replica: snapshot body: %w", err)
		}
		size = int64(len(blob))
		db, err = onex.OpenReplica(blob, onex.Config{})
		if err != nil {
			return fmt.Errorf("replica: %w", err)
		}
	}
	version := db.Version()
	f.mu.Lock()
	old := f.db
	f.db = db
	f.st.AppliedSeq = version
	if version > f.st.LeaderSeq {
		f.st.LeaderSeq = version
	}
	f.st.SnapshotsShipped++
	f.st.LastError = ""
	f.mu.Unlock()
	f.logf("replica %s: bootstrapped at version %d (%d bytes)", f.dataset, version, size)
	if f.opt.OnDB != nil {
		f.opt.OnDB(db)
	}
	if old != nil {
		// Release the superseded DB's mapping (no-op for in-memory
		// replicas). In-flight scans hold pins and finish safely; the
		// spool file's previous incarnation was already replaced by
		// rename, so the last pin dropping reclaims its inode too.
		old.Close()
	}
	return nil
}

// spoolPath is the mmap bootstrap spool file for this follower's dataset.
// The dataset name is path-escaped: it arrived from configuration, not a
// trusted filesystem, and must not traverse out of SpoolDir.
func (f *Follower) spoolPath() string {
	return filepath.Join(f.opt.SpoolDir, url.PathEscape(f.dataset)+".snap")
}

// tail long-polls the WAL endpoint and applies batches until an error or a
// fence. Each batch is decoded with store.DecodeWAL — the crash-recovery
// decoder — so a torn or corrupted stream can never half-apply: the batch
// fails decoding and the follower reconnects with its cursor unmoved past
// the last fully applied record.
func (f *Follower) tail(ctx context.Context) error {
	f.setState("streaming")
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		f.mu.Lock()
		from := f.st.AppliedSeq
		db := f.db
		f.mu.Unlock()

		recs, leaderSeq, err := f.fetchWAL(ctx, from)
		if leaderSeq > 0 {
			f.mu.Lock()
			f.st.LeaderSeq = leaderSeq
			f.mu.Unlock()
		}
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.Seq <= from {
				continue // duplicate from a crash-leftover leader log
			}
			if err := db.ApplyReplicated(rec.Seq, rec.Name, rec.Values); err != nil {
				return err
			}
			from = rec.Seq
			f.mu.Lock()
			f.st.AppliedSeq = rec.Seq
			f.st.RecordsApplied++
			f.lastRecord = time.Now()
			f.mu.Unlock()
		}
		if len(recs) > 0 {
			f.setError(nil)
		}
	}
}

// fetchWAL performs one long-poll against the WAL endpoint. A 204 returns
// an empty batch; a 410 returns errFenced.
func (f *Follower) fetchWAL(ctx context.Context, from uint64) ([]store.Record, uint64, error) {
	// Bound the request at the poll wait plus slack for transfer, so a
	// hung leader surfaces as a reconnect instead of a stuck follower.
	rctx, cancel := context.WithTimeout(ctx, f.opt.PollWait+15*time.Second)
	defer cancel()
	u := fmt.Sprintf("%s%s?from=%d&wait=%s", f.leader, WALPath(f.dataset), from, f.opt.PollWait)
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("replica: wal request: %w", err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("replica: wal: %w", err)
	}
	defer resp.Body.Close()
	leaderSeq, _ := strconv.ParseUint(resp.Header.Get(HeaderLeaderSeq), 10, 64)
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, leaderSeq, fmt.Errorf("replica: wal body: %w", err)
		}
		recs, report, err := store.DecodeWAL(body)
		if err != nil {
			return nil, leaderSeq, fmt.Errorf("replica: wal decode: %w", err)
		}
		if report.DiscardedBytes > 0 {
			// The leader never frames a torn record; damage here means the
			// transfer itself was cut. Reconnect and re-request.
			return nil, leaderSeq, fmt.Errorf("replica: wal stream damaged: %s", report.DiscardedReason)
		}
		return recs, leaderSeq, nil
	case http.StatusNoContent:
		return nil, leaderSeq, nil
	case http.StatusGone:
		return nil, leaderSeq, errFenced
	default:
		return nil, leaderSeq, fmt.Errorf("replica: wal: leader answered %s%s", resp.Status, bodyHint(resp.Body))
	}
}

// bodyHint renders a short error-body excerpt for diagnostics.
func bodyHint(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 200))
	if len(b) == 0 {
		return ""
	}
	return ": " + string(b)
}

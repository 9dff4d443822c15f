package onex

import (
	"errors"
	"fmt"

	"repro/internal/mmapdata"
	"repro/internal/store"
	"repro/internal/ts"
)

// ErrNoStore is returned by persistence operations on a DB that was opened
// without a storage engine (Config.Store nil).
var ErrNoStore = errors.New("onex: no store attached")

// ErrNoSnapshot is returned by OpenStore when the store directory exists but
// holds no snapshot yet: there is nothing to warm-open, so the caller should
// build the dataset cold (Open with Config.Store) instead.
var ErrNoSnapshot = errors.New("onex: store has no snapshot")

// OpenStore warm-opens a database from a FileStore directory: it loads the
// snapshot, re-applies the recorded normalization transform (deterministic
// arithmetic, so the reconstruction is bit-identical to the DB that wrote
// it — verified by the base's dataset checksum), and replays the WAL tail.
// The resolved engine configuration (ST, length bounds, band, mode,
// normalization) comes from the store; cfg contributes only the runtime
// knobs that are not persisted: CompactBytes and FsyncEvery.
// cfg.Store must be nil — OpenStore attaches its own engine, which the
// returned DB owns (and Close releases).
//
// A directory without a snapshot returns ErrNoSnapshot.
func OpenStore(dir string, cfg Config) (*DB, error) {
	if cfg.Store != nil {
		return nil, errors.New("onex: OpenStore: cfg.Store must be nil (the engine is opened from dir)")
	}
	if cfg.FsyncEvery < 0 {
		return nil, &ConfigError{Field: "FsyncEvery", Value: cfg.FsyncEvery,
			Reason: "must be non-negative (0 or 1 = fsync per ingest)"}
	}
	eng, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("onex: OpenStore: %w", err)
	}
	applyFsyncEvery(eng, cfg.FsyncEvery)
	if cfg.MmapValues {
		// Swap the engine's snapshot opener for the mmap path: Load then
		// returns a State whose series values are zero-copy views over the
		// mapped file, carried by the Dataset's ValueSource.
		eng.SetSnapshotOpener(mmapdata.OpenState)
	}
	db, err := openFromEngine(eng, cfg)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return db, nil
}

// applyFsyncEvery forwards the group-commit stride to engines that support
// it (FileStore). Engines without the knob keep their own durability
// policy.
func applyFsyncEvery(eng store.Engine, n int) {
	if s, ok := eng.(interface{ SetFsyncEvery(int) }); ok {
		s.SetFsyncEvery(max(n, 1))
	}
}

// openFromEngine recovers a DB from an already-opened engine. On error the
// engine is left open for the caller to close.
func openFromEngine(eng store.Engine, cfg Config) (*DB, error) {
	res, err := eng.Load()
	if err != nil {
		return nil, fmt.Errorf("onex: OpenStore: %w", err)
	}
	if res.State == nil {
		return nil, ErrNoSnapshot
	}
	db, err := openFromState(res.State, cfg, "OpenStore")
	if err != nil {
		releaseStateSource(res.State)
		return nil, err
	}
	db.store = eng

	// Replay the WAL tail. Records the snapshot already folded in (a crash
	// between compaction's two renames leaves them behind) are skipped by
	// sequence; past that, the log must be contiguous with the snapshot.
	for _, rec := range res.Records {
		ver := db.version.Load()
		if rec.Seq <= ver {
			continue
		}
		if rec.Seq != ver+1 {
			releaseStateSource(res.State)
			return nil, fmt.Errorf("onex: OpenStore: replay: record seq %d does not follow version %d (lost records)", rec.Seq, ver)
		}
		if err := db.applySeriesLocked(rec.Name, rec.Values); err != nil {
			releaseStateSource(res.State)
			return nil, fmt.Errorf("onex: OpenStore: replay seq %d (%q): %w", rec.Seq, rec.Name, err)
		}
		db.version.Add(1)
	}
	return db, nil
}

// releaseStateSource drops the owner reference on a decoded state's
// mmap-backed value source when an open fails after the mapping was
// created (the DB never took ownership). A nil source — the eager decode
// path — is a no-op.
func releaseStateSource(st *store.State) {
	if st != nil && st.Dataset != nil && st.Dataset.Source != nil {
		st.Dataset.Source.Release()
	}
}

// openFromState builds a DB over a decoded persisted state — the shared
// recovery core of OpenStore (snapshot from disk) and OpenReplica
// (snapshot shipped from a leader). The state carries the resolved engine
// configuration; cfg contributes only runtime knobs (CompactBytes,
// FsyncEvery). op names the caller for error messages.
func openFromState(st *store.State, cfg Config, op string) (*DB, error) {
	raw := st.Dataset // decoded fresh from disk or the wire; the DB is its only owner
	if err := raw.Validate(); err != nil {
		return nil, fmt.Errorf("onex: %s: snapshot dataset: %w", op, err)
	}
	normed, err := applyRecordedNorm(raw, st.Norm)
	if err != nil {
		return nil, fmt.Errorf("onex: %s: %w", op, err)
	}

	// The persisted state carries the resolved configuration: ST and the
	// length bounds inside the base, the rest in the snapshot META.
	cfg.ST = st.Base.ST
	cfg.MinLength = st.Base.MinLength
	cfg.MaxLength = st.Base.MaxLength
	cfg.Band = st.Band
	cfg.Exact = st.Exact
	cfg.KeepRaw = st.KeepRaw

	// newEngine verifies grouping.DatasetChecksum(normed) == base.DatasetSum,
	// so a snapshot whose dataset and index drifted apart fails here rather
	// than answering queries from a mismatched base.
	engine, err := newEngine(normed, st.Base, cfg)
	if err != nil {
		return nil, fmt.Errorf("onex: %s: %w", op, err)
	}
	// The snapshot does not carry the radius-zero bit; decide it once here,
	// against the dataset the checksum just tied to the base, so exact
	// queries read the bit instead of the values.
	if err := st.Base.DeriveRepIsFirst(normed); err != nil {
		return nil, fmt.Errorf("onex: %s: %w", op, err)
	}
	db := &DB{
		raw:    raw,
		normed: normed,
		base:   st.Base,
		engine: engine,
		cfg:    cfg,
		id:     lastDBID.Add(1),
		values: raw.Source, // owner reference when mmap-backed; nil otherwise
	}
	db.version.Store(st.Version)
	return db, nil
}

// applyRecordedNorm reconstructs the engine view of raw under a previously
// recorded transform. Unlike ts.NormalizeMinMax it never recomputes extrema:
// series ingested after Open may lie outside the open-time range, and the
// live DB normalized them against the recorded Min/Max, so recovery must do
// exactly the same arithmetic to be bit-identical.
func applyRecordedNorm(raw *ts.Dataset, norm ts.NormInfo) (*ts.Dataset, error) {
	if norm.Kind == ts.NormNone && raw.Source != nil {
		// No transform to apply (KeepRaw): the engine view is bit-identical
		// to the raw view, so both alias the same mmap-backed values and
		// nothing is materialized — this is the fully paged, beyond-RAM
		// configuration. Min-max falls through to the clone below: the
		// transform rewrites every value, so the normalized view must live
		// on the heap (the mapping is read-only), and only the raw view
		// stays paged.
		return raw.ShareValues(), nil
	}
	normed := raw.Clone()
	switch norm.Kind {
	case ts.NormNone:
		return normed, nil
	case ts.NormMinMax:
		span := norm.Max - norm.Min
		for _, s := range normed.Series {
			for i, v := range s.Values {
				if span == 0 {
					s.Values[i] = 0
				} else {
					s.Values[i] = (v - norm.Min) / span
				}
			}
		}
		normed.Norm = norm
		return normed, nil
	default:
		return nil, fmt.Errorf("onex: unsupported recorded normalization %v", norm.Kind)
	}
}

// stateLocked assembles the persistence view of the current DB. Callers hold
// db.mu (read or write); the engine encodes synchronously under that lock,
// so the referenced dataset and base cannot mutate mid-snapshot.
func (db *DB) stateLocked() *store.State {
	return &store.State{
		Dataset: db.raw,
		Norm:    db.normed.Norm,
		Base:    db.base,
		Version: db.version.Load(),
		Band:    db.cfg.Band,
		Exact:   db.cfg.Exact,
		KeepRaw: db.cfg.KeepRaw,
	}
}

// Snapshot persists the full current state to the attached store and resets
// its WAL (an explicit compaction). It blocks writers for the duration but
// not crash-safety: the swap is atomic, so a crash mid-snapshot leaves the
// previous state intact.
func (db *DB) Snapshot() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.store == nil {
		return ErrNoStore
	}
	if err := db.store.Snapshot(db.stateLocked()); err != nil {
		return fmt.Errorf("onex: Snapshot: %w", err)
	}
	db.storeErr = nil
	return nil
}

// StoreStatus reports the attached engine's persistence state, annotated
// with the DB's last background persistence error (a failed auto-compaction
// whose triggering ingest was still durable). ok is false when the DB has no
// store.
func (db *DB) StoreStatus() (st store.Status, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.store == nil {
		return store.Status{}, false
	}
	st = db.store.Status()
	if db.storeErr != nil {
		st.LastError = db.storeErr.Error()
	}
	if db.values != nil {
		st.ValuesKind = db.values.Kind()
		st.MappedBytes = db.values.MappedBytes()
		st.MappedResidentBytes = db.values.ResidentBytes()
	}
	return st, true
}

// Close releases the attached storage engine, if any, and — for a DB
// opened with Config.MmapValues — the snapshot mapping its values alias.
// On an eager DB queries keep working afterwards (the dataset stays in
// memory) and only further AddSeries calls fail, because durability can no
// longer be honoured. On an mmap-backed DB subsequent queries fail with
// ErrMmapClosed; in-flight scans finish safely first (they hold pins on
// the mapping, so the actual unmap waits for the last reader). Close is
// idempotent and a no-op for in-memory databases.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.values != nil {
		db.values.Release()
		db.values = nil
		db.mmapClosed = true
	}
	if db.store == nil {
		return nil
	}
	err := db.store.Close()
	db.store = nil
	db.storeClosed = true
	if err != nil {
		return fmt.Errorf("onex: Close: %w", err)
	}
	return nil
}

// maybeCompactLocked folds the WAL into a fresh snapshot once it outgrows
// the configured threshold. Compaction failure must not fail the ingest that
// triggered it — the append was already durable — so the error is recorded
// for StoreStatus instead of returned.
func (db *DB) maybeCompactLocked() {
	if db.store == nil {
		return
	}
	threshold := db.cfg.CompactBytes
	if threshold < 0 {
		return
	}
	if threshold == 0 {
		threshold = DefaultCompactBytes
	}
	if db.store.Status().WALBytes < threshold {
		return
	}
	if err := db.store.Snapshot(db.stateLocked()); err != nil {
		db.storeErr = fmt.Errorf("auto-compaction: %w", err)
		return
	}
	db.storeErr = nil
}

package onex

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/grouping"
	"repro/internal/store"
	"repro/internal/ts"
)

// WithinThreshold returns every indexed subsequence whose length-normalized
// DTW distance from the query (original units) is at most maxDist, best
// first, capped at limit (0 = unlimited). Sweeping maxDist reproduces the
// demo's "changes in similarity for varying parameters" exploration.
//
// Deprecated: use Find with Query{Values: q, MaxDist: maxDist, K: limit}.
func (db *DB) WithinThreshold(q []float64, maxDist float64, limit int) ([]Match, error) {
	// Forced range mode keeps the maxDist = 0 edge case ("exact matches
	// only") behaving as it always has.
	res, err := db.find(context.Background(), Query{Values: q, MaxDist: maxDist, K: limit}, true)
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// AddSeries appends a new series (original units) to the open database and
// incrementally indexes its subsequences into the base — the demo's "load
// new data" flow without a rebuild. Values falling outside the
// normalization range seen at Open time are mapped linearly beyond [0,1],
// which keeps all distances consistent. AddSeries is safe to call
// concurrently with queries: it takes the DB's write lock, so in-flight
// queries finish first and new ones wait for the insert.
//
// With a store attached, the series is logged to the write-ahead log and
// fsynced before AddSeries returns (and before Version advances): a nil
// error means the ingest survives a crash. A failed append rolls the
// in-memory insert back, so memory and disk never disagree about Version.
func (db *DB) AddSeries(name string, values []float64) error {
	if name == "" {
		return errors.New("onex: AddSeries: name required")
	}
	if len(values) == 0 {
		return errors.New("onex: AddSeries: no values")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.replica {
		return ErrReadOnlyReplica
	}
	if db.storeClosed {
		return errors.New("onex: AddSeries: store closed (durability released); reopen with OpenStore")
	}
	if err := db.applySeriesLocked(name, values); err != nil {
		return fmt.Errorf("onex: AddSeries: %w", err)
	}
	if db.store != nil {
		rec := store.Record{Seq: db.version.Load() + 1, Name: name, Values: values}
		if err := db.store.Append(rec); err != nil {
			db.unapplySeriesLocked(name)
			return fmt.Errorf("onex: AddSeries: wal: %w", err)
		}
	}
	// Still under the write lock: any reader that subsequently observes the
	// new version is guaranteed to see the ingested series too.
	db.version.Add(1)
	db.maybeCompactLocked()
	return nil
}

// applySeriesLocked performs the in-memory half of an ingest: append to both
// dataset views and index into the base. The engine needs nothing: it holds
// the same *ts.Dataset and *grouping.Base, both mutated in place, and the
// base keeps its dataset checksum current itself — so an insert costs work
// proportional to the new series, never to the dataset. On error the DB is
// unchanged. Callers hold the write lock (or exclusive access, during
// recovery replay) and are responsible for bumping version afterwards.
func (db *DB) applySeriesLocked(name string, values []float64) error {
	if _, dup := db.raw.ByName(name); dup {
		return fmt.Errorf("series %q already exists", name)
	}
	if err := db.raw.Add(ts.NewSeries(name, values)); err != nil {
		return err
	}
	var normVals []float64
	if db.cfg.KeepRaw {
		normVals = make([]float64, len(values))
		copy(normVals, values)
	} else {
		normVals = db.normalizeQuery(values)
	}
	ns := ts.NewSeries(name, normVals)
	if err := db.normed.Add(ns); err != nil {
		// Roll back the raw append (name index included) to stay consistent.
		db.raw.Remove(name)
		return err
	}
	if err := db.base.AddSeries(db.normed, db.normed.Len()-1); err != nil {
		// grouping.AddSeries validates before touching the base, so removing
		// the freshly appended series from both datasets restores the
		// pre-call state exactly (no dangling name-index entries).
		db.raw.Remove(name)
		db.normed.Remove(name)
		return err
	}
	return nil
}

// unapplySeriesLocked is applySeriesLocked's inverse, used when the durable
// append fails after the in-memory insert succeeded. It is only sound for
// the most recently added series (grouping.RemoveSeries's contract). Callers
// hold the write lock.
func (db *DB) unapplySeriesLocked(name string) {
	si := db.normed.Len() - 1
	db.raw.Remove(name)
	db.normed.Remove(name)
	db.base.RemoveSeries(db.normed, si)
}

// CommonShape is a shape shared across several series, in original units.
type CommonShape struct {
	Length int
	// Series names the distinct series the shape recurs in.
	Series []string
	// Rep is the shared shape in original units.
	Rep []float64
	// TotalMembers is the full cardinality of the underlying group.
	TotalMembers int
}

// CommonPatterns finds shapes shared by at least minSeries different
// series (the paper's "critical relationships between time series"),
// ranked by series coverage. minLen/maxLen zero means the indexed range;
// k caps the list (0 = default 16).
//
// Deprecated: use Analyze with Analysis{Kind: AnalysisCommonPatterns,
// MinSeries: minSeries, Lengths: Lengths{Min: minLen, Max: maxLen}, K: k}.
func (db *DB) CommonPatterns(minSeries, minLen, maxLen, k int) []CommonShape {
	// This method has always treated non-positive bounds as "the indexed
	// range"; Analysis spells that 0, so clamp before delegating.
	res, err := db.Analyze(context.Background(), Analysis{
		Kind:      AnalysisCommonPatterns,
		MinSeries: minSeries,
		Lengths:   Lengths{Min: max(minLen, 0), Max: max(maxLen, 0)},
		K:         k,
	})
	if err != nil {
		return nil
	}
	return res.Common
}

// ThresholdDistribution returns the per-point pairwise-ED sample, the
// probe length it was measured at, and the recommendations derived from
// it — everything a front end needs to draw the threshold histogram.
//
// Deprecated: use Analyze with Analysis{Kind: AnalysisThresholds}.
func (db *DB) ThresholdDistribution() ([]float64, int, []Recommendation, error) {
	res, err := db.Analyze(context.Background(), Analysis{Kind: AnalysisThresholds})
	if err != nil {
		return nil, 0, nil, err
	}
	t := res.Thresholds
	return t.Sample, t.ProbeLength, t.Recommendations, nil
}

// SweepPoint re-exports one threshold-sweep step.
type SweepPoint = core.SweepPoint

// SimilaritySweep counts matches at several thresholds in one pass (the
// paper's "changes in the similarity between sequences for varying
// parameters"). Query in original units; thresholds in normalized
// per-point units like Config.ST.
//
// Deprecated: use Analyze with Analysis{Kind: AnalysisSimilaritySweep,
// Values: q, Thresholds: thresholds}.
func (db *DB) SimilaritySweep(q []float64, thresholds []float64) ([]SweepPoint, error) {
	res, err := db.Analyze(context.Background(), Analysis{
		Kind:       AnalysisSimilaritySweep,
		Values:     q,
		Thresholds: thresholds,
	})
	if err != nil {
		return nil, err
	}
	return res.Sweep, nil
}

// Member is one group member in the drill-down view, in original units.
type Member struct {
	Series string
	Start  int
	Length int
	// RepED is the Euclidean distance to the group representative in
	// normalized units (bounded by ST*Length/2).
	RepED  float64
	Values []float64
}

// GroupMembers lists one similarity group's members (the demo's drill-down
// from the overview pane), nearest the representative first. Address the
// group by its Overview position: length and index.
//
// Deprecated: use Analyze with Analysis{Kind: AnalysisGroupMembers,
// Length: length, Index: index}.
func (db *DB) GroupMembers(length, index int) ([]Member, error) {
	res, err := db.Analyze(context.Background(), Analysis{
		Kind:   AnalysisGroupMembers,
		Length: length,
		Index:  index,
	})
	if err != nil {
		return nil, err
	}
	return res.Members, nil
}

// LengthSummary re-exports the per-length base statistics row.
type LengthSummary = core.LengthSummary

// LengthSummaries returns the base's per-length shape (group and
// subsequence counts), ascending by length.
//
// Deprecated: use Analyze with Analysis{Kind: AnalysisLengthSummaries}.
func (db *DB) LengthSummaries() []LengthSummary {
	res, err := db.Analyze(context.Background(), Analysis{Kind: AnalysisLengthSummaries})
	if err != nil {
		return nil
	}
	return res.LengthSummaries
}

// SaveBase persists the built ONEX base to a file (versioned binary format
// with CRC). Reopening with OpenWithBase skips the preprocessing cost.
func (db *DB) SaveBase(path string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.base.SaveFile(path)
}

// OpenWithBase opens a dataset using a previously saved base instead of
// rebuilding. The base must have been built (by this library) from exactly
// this dataset with the same normalization setting; this is verified by
// checksum. cfg.ST, MinLength and MaxLength are taken from the base.
func OpenWithBase(d *ts.Dataset, basePath string, cfg Config) (*DB, error) {
	if d == nil {
		return nil, errors.New("onex: OpenWithBase: nil dataset")
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("onex: OpenWithBase: %w", err)
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	raw := d.Clone()
	normed := d.Clone()
	if !cfg.KeepRaw {
		if err := ts.NormalizeMinMax(normed); err != nil {
			return nil, fmt.Errorf("onex: OpenWithBase: %w", err)
		}
	}
	base, err := grouping.LoadFile(basePath, normed)
	if err != nil {
		return nil, fmt.Errorf("onex: OpenWithBase: %w", err)
	}
	cfg.ST = base.ST
	cfg.MinLength = base.MinLength
	cfg.MaxLength = base.MaxLength
	if cfg.Band == 0 {
		cfg.Band = max(4, cfg.MaxLength/10)
	}
	engine, err := newEngine(normed, base, cfg)
	if err != nil {
		return nil, fmt.Errorf("onex: OpenWithBase: %w", err)
	}
	db := &DB{raw: raw, normed: normed, base: base, engine: engine, cfg: cfg, id: lastDBID.Add(1), store: cfg.Store}
	db.version.Store(1)
	if db.store != nil {
		applyFsyncEvery(db.store, cfg.FsyncEvery)
		// Same contract as Open: persist the opening state immediately so a
		// crash right after still warm-starts. On failure the engine is left
		// open for the caller to close.
		if err := db.store.Snapshot(db.stateLocked()); err != nil {
			return nil, fmt.Errorf("onex: OpenWithBase: initial snapshot: %w", err)
		}
	}
	return db, nil
}

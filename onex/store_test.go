package onex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/store"
)

// openStored builds a store-backed DB over the small fixture dataset in a
// fresh directory and returns both.
func openStored(t testing.TB, cfg Config) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	eng, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = eng
	if cfg.MinLength == 0 {
		cfg.MinLength = 4
	}
	if cfg.MaxLength == 0 {
		cfg.MaxLength = 10
	}
	db, err := Open(smallMatters(t), cfg)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dir
}

// sameResults asserts two DBs answer a battery of Find, Analyze and Stream
// requests identically: same matches in the same order at the same distances,
// same analysis output. This is the acceptance bar for warm open — a DB
// recovered from snapshot+WAL must be indistinguishable from the one that
// wrote it.
func sameResults(t *testing.T, want, got *DB) {
	t.Helper()
	ctx := context.Background()

	if wv, gv := want.Version(), got.Version(); wv != gv {
		t.Fatalf("version %d != %d", gv, wv)
	}
	ws, gs := want.Stats(), got.Stats()
	if ws != gs {
		t.Fatalf("stats %+v != %+v", gs, ws)
	}

	q, err := want.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Values: q[0:8], K: 5},
		{Values: q[2:10], K: 3, Mode: ModeExact},
		{Values: q[0:6], MaxDist: 0.05},
		{Window: Window{Series: "MA", Start: 0, Length: 8}, Exclude: Exclude{Self: true}, K: 4},
	}
	for i, query := range queries {
		wr, werr := want.Find(ctx, query)
		gr, gerr := got.Find(ctx, query)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("query %d: err %v != %v", i, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if len(wr.Matches) != len(gr.Matches) {
			t.Fatalf("query %d: %d matches != %d", i, len(gr.Matches), len(wr.Matches))
		}
		for j := range wr.Matches {
			sameMatch(t, fmt.Sprintf("query %d match %d", i, j), wr.Matches[j], gr.Matches[j])
		}
	}

	// Analysis: per-length base shape and the common-pattern ranking both
	// look directly at the grouping index, so any reconstruction drift in
	// the base shows up here.
	wa, err := want.Analyze(ctx, Analysis{Kind: AnalysisLengthSummaries})
	if err != nil {
		t.Fatal(err)
	}
	ga, err := got.Analyze(ctx, Analysis{Kind: AnalysisLengthSummaries})
	if err != nil {
		t.Fatal(err)
	}
	if len(wa.LengthSummaries) != len(ga.LengthSummaries) {
		t.Fatalf("length summaries %d != %d", len(ga.LengthSummaries), len(wa.LengthSummaries))
	}
	for i := range wa.LengthSummaries {
		if wa.LengthSummaries[i] != ga.LengthSummaries[i] {
			t.Fatalf("length summary %d: %+v != %+v", i, ga.LengthSummaries[i], wa.LengthSummaries[i])
		}
	}
	wc, err := want.Analyze(ctx, Analysis{Kind: AnalysisCommonPatterns, MinSeries: 2, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	gc, err := got.Analyze(ctx, Analysis{Kind: AnalysisCommonPatterns, MinSeries: 2, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(wc.Common) != len(gc.Common) {
		t.Fatalf("common patterns %d != %d", len(gc.Common), len(wc.Common))
	}
	for i := range wc.Common {
		w, g := wc.Common[i], gc.Common[i]
		if w.Length != g.Length || w.TotalMembers != g.TotalMembers || len(w.Series) != len(g.Series) {
			t.Fatalf("common %d: %+v != %+v", i, g, w)
		}
		for j := range w.Rep {
			if math.Abs(w.Rep[j]-g.Rep[j]) > 1e-12 {
				t.Fatalf("common %d rep[%d]: %g != %g", i, j, g.Rep[j], w.Rep[j])
			}
		}
	}

	// Stream: the progressive pipeline must certify the same exact answer.
	wx, err := want.Stream(ctx, Query{Values: q[0:8], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	wres, err := wx.Wait()
	if err != nil {
		t.Fatal(err)
	}
	gx, err := got.Stream(ctx, Query{Values: q[0:8], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := gx.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(wres.Matches) != len(gres.Matches) {
		t.Fatalf("stream %d matches != %d", len(gres.Matches), len(wres.Matches))
	}
	for i := range wres.Matches {
		sameMatch(t, fmt.Sprintf("stream match %d", i), wres.Matches[i], gres.Matches[i])
	}
}

// TestOpenStoreEquivalence is the round-trip acceptance test: a DB opened
// from its snapshot answers every query class identically to the live DB
// that wrote it — including series ingested (and normalized against the
// open-time extrema) after the snapshot.
func TestOpenStoreEquivalence(t *testing.T) {
	live, dir := openStored(t, Config{})
	if err := live.AddSeries("ingested-1", []float64{5, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 2}); err != nil {
		t.Fatal(err)
	}
	// Values outside the open-time min/max range: recovery must re-apply
	// the recorded transform, not recompute extrema.
	if err := live.AddSeries("ingested-2", []float64{120, 110, 100, 90, 80, 90, 100, 110, 120, 110, 100, 90}); err != nil {
		t.Fatal(err)
	}

	warm, err := OpenStore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	sameResults(t, live, warm)

	names := warm.SeriesNames()
	found := 0
	for _, n := range names {
		if n == "ingested-1" || n == "ingested-2" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("ingested series missing after warm open: %v", names)
	}
}

// TestOpenStoreCrashReplay exercises the WAL-tail path: ingests land in the
// log only (no compaction), the process "crashes" (Close without Snapshot),
// and a warm open must replay them onto the snapshot to reach the same state.
func TestOpenStoreCrashReplay(t *testing.T) {
	live, dir := openStored(t, Config{CompactBytes: -1}) // never fold the WAL
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("crash-%d", i)
		vals := make([]float64, 12)
		for j := range vals {
			vals[j] = float64(i+1) * math.Sin(float64(j)/2)
		}
		if err := live.AddSeries(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := live.StoreStatus()
	if !ok || st.WALRecords != 3 {
		t.Fatalf("expected 3 WAL records pending, status %+v ok=%v", st, ok)
	}
	if err := live.Close(); err != nil { // releases the dir; no snapshot taken
		t.Fatal(err)
	}

	warm, err := OpenStore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	sameResults(t, live, warm)
}

// TestOpenStoreEmptyDir pins the cold-start signal: a store directory with
// no snapshot is not an error state, it is "build me cold".
func TestOpenStoreEmptyDir(t *testing.T) {
	_, err := OpenStore(t.TempDir(), Config{})
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

// TestOpenStoreRejectsAttachedEngine: OpenStore owns its engine; passing one
// in is a contract violation, not a merge.
func TestOpenStoreRejectsAttachedEngine(t *testing.T) {
	eng, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := OpenStore(t.TempDir(), Config{Store: eng}); err == nil {
		t.Fatal("OpenStore accepted cfg.Store")
	}
}

// failingEngine wraps a real engine but fails every Append while pass is
// unset, to exercise the AddSeries rollback path.
type failingEngine struct {
	store.Engine
	pass bool
}

var errAppendBoom = errors.New("append boom")

func (f *failingEngine) Append(rec store.Record) error {
	if !f.pass {
		return errAppendBoom
	}
	return f.Engine.Append(rec)
}

// TestAddSeriesRollbackOnWALFailure: when the durable append fails, the
// in-memory insert is rolled back — version unchanged, series absent, and
// the DB still answers queries.
func TestAddSeriesRollbackOnWALFailure(t *testing.T) {
	dir := t.TempDir()
	eng, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(smallMatters(t), Config{MinLength: 4, MaxLength: 10, Store: &failingEngine{Engine: eng}})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	defer db.Close()

	before := db.Version()
	beforeStats := db.Stats()
	err = db.AddSeries("doomed", []float64{1, 2, 3, 4, 5, 6, 7, 8})
	if !errors.Is(err, errAppendBoom) {
		t.Fatalf("AddSeries = %v, want wrapped append failure", err)
	}
	if db.Version() != before {
		t.Fatalf("version advanced to %d despite failed append", db.Version())
	}
	if db.Stats() != beforeStats {
		t.Fatalf("stats changed: %+v != %+v", db.Stats(), beforeStats)
	}
	if _, err := db.SeriesValues("doomed"); err == nil {
		t.Fatal("rolled-back series still resolvable")
	}
	// The DB remains fully queryable after the rollback.
	q, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Find(context.Background(), Query{Values: q[0:8]}); err != nil {
		t.Fatalf("query after rollback: %v", err)
	}
}

// TestAutoCompaction: with a tiny threshold every ingest folds the WAL into
// a fresh snapshot, so the log stays empty and a warm open needs no replay.
func TestAutoCompaction(t *testing.T) {
	db, dir := openStored(t, Config{CompactBytes: 1})
	if err := db.AddSeries("compact-me", []float64{1, 2, 3, 4, 5, 4, 3, 2, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	st, ok := db.StoreStatus()
	if !ok {
		t.Fatal("no store status on store-backed DB")
	}
	if st.WALRecords != 0 {
		t.Fatalf("%d WAL records after auto-compaction, want 0", st.WALRecords)
	}
	if st.Compactions < 2 { // initial snapshot + at least one auto-compaction
		t.Fatalf("compactions = %d, want >= 2", st.Compactions)
	}
	if st.SnapshotVersion != db.Version() {
		t.Fatalf("snapshot version %d != DB version %d", st.SnapshotVersion, db.Version())
	}

	warm, err := OpenStore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.Version() != db.Version() {
		t.Fatalf("warm version %d != live %d", warm.Version(), db.Version())
	}
}

// TestCloseSemantics: Close releases durability but not the in-memory DB —
// queries keep working, ingest refuses, Close is idempotent.
func TestCloseSemantics(t *testing.T) {
	db, _ := openStored(t, Config{})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	q, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Find(context.Background(), Query{Values: q[0:8]}); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
	if _, ok := db.StoreStatus(); ok {
		t.Fatal("StoreStatus ok after Close")
	}
	if err := db.Snapshot(); !errors.Is(err, ErrNoStore) {
		t.Fatalf("Snapshot after Close = %v, want ErrNoStore", err)
	}
	// Ingest refuses after Close: the caller was promised durability and
	// the DB can no longer honour it.
	if err := db.AddSeries("late", []float64{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("AddSeries accepted after Close released durability")
	}
}

// TestSnapshotWithoutStore: the persistence API on an in-memory DB signals
// ErrNoStore rather than pretending to persist.
func TestSnapshotWithoutStore(t *testing.T) {
	db := openSmall(t)
	if err := db.Snapshot(); !errors.Is(err, ErrNoStore) {
		t.Fatalf("Snapshot = %v, want ErrNoStore", err)
	}
	if _, ok := db.StoreStatus(); ok {
		t.Fatal("StoreStatus ok on in-memory DB")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close on in-memory DB = %v", err)
	}
}

// TestConcurrentIngestWithStore drives ingest, queries and snapshots
// concurrently against a store-backed DB — the -race job's target. After the
// dust settles, a warm open must equal the live DB exactly.
func TestConcurrentIngestWithStore(t *testing.T) {
	live, dir := openStored(t, Config{})
	q, err := live.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("conc-%d-%d", w, i)
				vals := make([]float64, 12)
				for j := range vals {
					vals[j] = float64(w) + float64(i)*0.1 + math.Cos(float64(j))
				}
				if err := live.AddSeries(name, vals); err != nil {
					t.Errorf("AddSeries %s: %v", name, err)
					return
				}
				if _, err := live.Find(context.Background(), Query{Values: q[0:8], K: 2}); err != nil {
					t.Errorf("Find during ingest: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := live.Snapshot(); err != nil {
				t.Errorf("Snapshot during ingest: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	warm, err := OpenStore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	sameResults(t, live, warm)
}

package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/store"
	"repro/onex"
)

func newStoredServer(t *testing.T) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	s := New(WithStore(dir))
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hts.Close()
		s.CloseStores()
	})
	return s, hts, dir
}

// TestWithStoreLoadPersists: loading a dataset on a store-backed server
// creates its store directory with a snapshot, and healthz reports it.
func TestWithStoreLoadPersists(t *testing.T) {
	_, hts, dir := newStoredServer(t)
	loadGrowth(t, hts)

	if _, err := os.Stat(filepath.Join(dir, "growth", "snapshot.onex")); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "growth", "wal.log")); err != nil {
		t.Fatalf("wal not created: %v", err)
	}

	var health HealthResponse
	getJSON(t, hts.URL+"/healthz", &health)
	info, ok := health.Persistence["growth"]
	if !ok {
		t.Fatalf("healthz missing persistence block: %+v", health)
	}
	if info.Kind != "filestore" || info.SnapshotAgeSeconds < 0 || info.WALRecords != 0 {
		t.Fatalf("persistence info = %+v", info)
	}
}

// TestHealthzReportsMemoryDatasets: without a store the persistence block
// labels datasets as in-memory rather than omitting them.
func TestHealthzReportsMemoryDatasets(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	var health HealthResponse
	getJSON(t, hts.URL+"/healthz", &health)
	if info, ok := health.Persistence["growth"]; !ok || info.Kind != "memory" {
		t.Fatalf("persistence = %+v", health.Persistence)
	}
}

// TestStoreMetricsFamilies: the onex_store_* families appear on a
// store-backed server and track WAL appends; a storeless server must not
// emit them at all (scrape stability).
func TestStoreMetricsFamilies(t *testing.T) {
	_, hts, _ := newStoredServer(t)
	loadGrowth(t, hts)

	resp, _ := postJSON(t, hts.URL+"/api/v1/datasets/growth/series", AddSeriesRequest{
		Series: "ingest-1",
		Values: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	body := fetchMetrics(t, hts)
	for _, want := range []string{
		`onex_store_wal_appends_total{dataset="growth"} 1`,
		`onex_store_compactions_total{dataset="growth"} 1`,
		`onex_store_wal_pending_records{dataset="growth"} 1`,
		`onex_store_wal_bytes{dataset="growth"}`,
		`onex_store_snapshot_age_seconds{dataset="growth"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	_, plain := newTestServer(t)
	loadGrowth(t, plain)
	if strings.Contains(fetchMetrics(t, plain), "onex_store_") {
		t.Fatal("storeless server emits onex_store_* families")
	}
}

func fetchMetrics(t *testing.T, hts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestUnsafeDatasetNameRejected: with persistence on, dataset names become
// directory names, so traversal attempts must die at the API boundary.
func TestUnsafeDatasetNameRejected(t *testing.T) {
	_, hts, dir := newStoredServer(t)
	for _, name := range []string{"../evil", "a/b", ".hidden", "", "nul\x00byte", strings.Repeat("x", 200)} {
		resp, _ := postJSON(t, hts.URL+"/api/v1/datasets/load", LoadRequest{
			Name: name, Source: "matters:GrowthRate", MinLength: 4, MaxLength: 10,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("name %q: status %d, want 400", name, resp.StatusCode)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("unsafe load left directories behind: %v", entries)
	}
	// The same names are fine without a store (no filesystem exposure) —
	// except the empty name, which is always invalid.
	_, plain := newTestServer(t)
	resp, _ := postJSON(t, plain.URL+"/api/v1/datasets/load", LoadRequest{
		Name: "a/b", Source: "matters:GrowthRate", MinLength: 4, MaxLength: 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("storeless server rejected name a/b: %d", resp.StatusCode)
	}
}

// TestRestoreStoredRestart simulates a full process restart: load + ingest
// on server one, shut it down gracefully, then bring up a second server on
// the same store root and check it serves the same data — including the
// post-snapshot ingest — without any /datasets/load call.
func TestRestoreStoredRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := New(WithStore(dir))
	hts1 := httptest.NewServer(s1.Handler())
	loadGrowth(t, hts1)
	resp, _ := postJSON(t, hts1.URL+"/api/v1/datasets/growth/series", AddSeriesRequest{
		Series: "survives-restart",
		Values: []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	// Graceful shutdown: fold WALs, release the directories.
	if err := s1.PersistAll(); err != nil {
		t.Fatal(err)
	}
	s1.CloseStores()
	hts1.Close()

	s2 := New(WithStore(dir))
	restored, err := s2.RestoreStored()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0] != "growth" {
		t.Fatalf("restored = %v", restored)
	}
	hts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		hts2.Close()
		s2.CloseStores()
	})

	var names []string
	getJSON(t, hts2.URL+"/api/v1/datasets/growth/series", &names)
	if len(names) != 51 {
		t.Fatalf("%d series after restart, want 51 (50 + ingest)", len(names))
	}
	found := false
	for _, n := range names {
		found = found || n == "survives-restart"
	}
	if !found {
		t.Fatalf("ingested series lost across restart: %v", names)
	}
	// And it keeps accepting durable ingests.
	resp, _ = postJSON(t, hts2.URL+"/api/v1/datasets/growth/series", AddSeriesRequest{
		Series: "post-restart",
		Values: []float64{2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart ingest status = %d", resp.StatusCode)
	}
}

// TestRestoreStoredSkipsEmptyDirs: a directory without a snapshot (crash
// before the initial snapshot) is a cold-start signal, not a restore error;
// stray files are ignored.
func TestRestoreStoredSkipsEmptyDirs(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "empty-crashed"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(WithStore(dir))
	restored, err := s.RestoreStored()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("restored = %v, want none", restored)
	}
}

// TestAddDBClosesReplaced: re-registering a dataset name must close the old
// DB's engine, or the new one could never own the store directory.
func TestAddDBClosesReplaced(t *testing.T) {
	dir := t.TempDir()
	s := New()

	db1 := openStoredDB(t, filepath.Join(dir, "d"))
	s.AddDB("d", db1)
	db2 := openStoredDB(t, filepath.Join(dir, "d2"))
	s.AddDB("d", db2)
	t.Cleanup(func() { _ = db2.Close() })

	// db1's engine must be closed now: its durable ingest path refuses.
	if err := db1.AddSeries("x", []float64{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("replaced DB still accepts durable ingest (engine not closed)")
	}
	if err := db2.AddSeries("x", []float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatalf("current DB ingest failed: %v", err)
	}
}

// openStoredDB builds a store-backed DB over the small fixture dataset in
// its own directory.
func openStoredDB(t *testing.T, dir string) *onex.DB {
	t.Helper()
	eng, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate, Periods: 16})
	db, err := onex.Open(d, onex.Config{MinLength: 4, MaxLength: 10, Store: eng})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	return db
}

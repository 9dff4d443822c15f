package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs a subcommand with stdout redirected into a buffer.
func capture(t *testing.T, f func([]string) error, args []string) string {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	defer func() { stdout = old }()
	if err := f(args); err != nil {
		t.Fatalf("%v (output so far: %s)", err, buf.String())
	}
	return buf.String()
}

// captureErr is capture for paths expected to fail.
func captureErr(t *testing.T, f func([]string) error, args []string) error {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	defer func() { stdout = old }()
	return f(args)
}

func genGrowth(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "growth.csv")
	out := capture(t, cmdGen, []string{"-kind", "matters", "-indicator", "GrowthRate", "-out", path})
	if !strings.Contains(out, "50 series") {
		t.Fatalf("gen output: %s", out)
	}
	return path
}

func TestCmdGenAllKinds(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"matters", "electricity", "cbf", "walks", "sines", "ecg"} {
		path := filepath.Join(dir, kind+".csv")
		out := capture(t, cmdGen, []string{"-kind", kind, "-out", path, "-len", "20"})
		if !strings.Contains(out, "wrote") {
			t.Fatalf("gen %s output: %s", kind, out)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("gen %s wrote nothing: %v", kind, err)
		}
	}
	if err := captureErr(t, cmdGen, []string{"-kind", "bogus", "-out", filepath.Join(dir, "x.csv")}); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if err := captureErr(t, cmdGen, []string{"-kind", "matters"}); err == nil {
		t.Fatal("missing -out accepted")
	}
	if err := captureErr(t, cmdGen, []string{"-kind", "matters", "-indicator", "Bogus", "-out", filepath.Join(dir, "y.csv")}); err == nil {
		t.Fatal("bogus indicator accepted")
	}
}

func TestCmdBuildQueryRangeFlow(t *testing.T) {
	dir := t.TempDir()
	data := genGrowth(t, dir)

	out := capture(t, cmdBuild, []string{"-data", data, "-minlen", "4", "-maxlen", "9"})
	for _, want := range []string{"subsequences:", "groups:", "compaction:", "build time:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("build output missing %q:\n%s", want, out)
		}
	}

	// Query after a rebuild and from a persisted store must both answer,
	// identically.
	q1 := capture(t, cmdQuery, []string{"-data", data, "-minlen", "4", "-maxlen", "9",
		"-series", "MA", "-start", "0", "-len", "8", "-exclude-source"})
	if !strings.Contains(q1, "match:") {
		t.Fatalf("query output: %s", q1)
	}
	for _, line := range strings.Split(q1, "\n") {
		if strings.HasPrefix(line, "match:") && strings.Contains(line, "MA[") {
			t.Fatalf("exclude-source returned the source series: %s", line)
		}
	}
	storeDir := filepath.Join(dir, "growth.store")
	capture(t, cmdSnapshot, []string{"-data", data, "-minlen", "4", "-maxlen", "9", "-store", storeDir})
	q2 := capture(t, cmdQuery, []string{"-store", storeDir,
		"-series", "MA", "-start", "0", "-len", "8", "-exclude-source"})
	if q1 != q2 {
		t.Fatalf("store-backed query differs:\n%s\nvs\n%s", q1, q2)
	}

	r := capture(t, cmdRange, []string{"-store", storeDir,
		"-series", "MA", "-len", "8", "-maxdist", "0.05", "-limit", "4"})
	if !strings.Contains(r, "matches within") {
		t.Fatalf("range output: %s", r)
	}

	// Error paths.
	if err := captureErr(t, cmdQuery, []string{"-data", data}); err == nil {
		t.Fatal("query without -series accepted")
	}
	if err := captureErr(t, cmdRange, []string{"-data", data, "-series", "MA", "-len", "9999"}); err == nil {
		t.Fatal("out-of-range window accepted")
	}
	if err := captureErr(t, cmdBuild, []string{}); err == nil {
		t.Fatal("build without -data accepted")
	}
}

func TestCmdQueryUnifiedFlags(t *testing.T) {
	dir := t.TempDir()
	data := genGrowth(t, dir)
	open := []string{"-data", data, "-minlen", "4", "-maxlen", "9"}

	// -k > 1 switches to list output.
	multi := capture(t, cmdQuery, append(open, "-series", "MA", "-len", "8", "-k", "3"))
	if strings.Count(multi, "#") < 2 {
		t.Fatalf("-k 3 did not list matches:\n%s", multi)
	}

	// -stats surfaces the search counters.
	st := capture(t, cmdQuery, append(open, "-series", "MA", "-len", "8", "-stats"))
	if !strings.Contains(st, "stats:") || !strings.Contains(st, "DTWs") {
		t.Fatalf("-stats output missing counters:\n%s", st)
	}

	// -mode exact runs the certified search; it must still answer.
	ex := capture(t, cmdQuery, append(open, "-series", "MA", "-len", "8", "-mode", "exact"))
	if !strings.Contains(ex, "match:") {
		t.Fatalf("-mode exact output:\n%s", ex)
	}
	// Bogus mode is rejected.
	if err := captureErr(t, cmdQuery, append(open, "-series", "MA", "-len", "8", "-mode", "bogus")); err == nil {
		t.Fatal("bogus -mode accepted")
	}

	// range -stats works and -maxdist must be positive.
	rs := capture(t, cmdRange, append(open, "-series", "MA", "-len", "8", "-maxdist", "0.1", "-stats"))
	if !strings.Contains(rs, "matches within") || !strings.Contains(rs, "stats:") {
		t.Fatalf("range -stats output:\n%s", rs)
	}
	if err := captureErr(t, cmdRange, append(open, "-series", "MA", "-len", "8", "-maxdist", "0")); err == nil {
		t.Fatal("-maxdist 0 accepted")
	}
}

func TestCmdQueryProgressive(t *testing.T) {
	dir := t.TempDir()
	data := genGrowth(t, dir)
	open := []string{"-data", data, "-minlen", "4", "-maxlen", "9"}

	out := capture(t, cmdQuery, append(open, "-series", "MA", "-len", "8", "-k", "3",
		"-exclude-source", "-progressive", "-stats"))
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("progressive output too short:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "approx") {
		t.Fatalf("first line is not the approximate answer:\n%s", out)
	}
	for _, want := range []string{"best:", "exact", "groups remaining", "certified", "#1", "stats:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progressive output missing %q:\n%s", want, out)
		}
	}
	// The final exact listing must agree with a one-shot exact query.
	oneShot := capture(t, cmdQuery, append(open, "-series", "MA", "-len", "8", "-k", "3",
		"-exclude-source", "-mode", "exact"))
	for _, line := range strings.Split(oneShot, "\n") {
		if strings.Contains(line, "#") {
			if !strings.Contains(out, strings.TrimSpace(line)) {
				t.Fatalf("one-shot match %q missing from progressive output:\n%s", strings.TrimSpace(line), out)
			}
		}
	}
}

// TestCmdSeasonalRecommendOverview drives the three landing explorations
// (seasonal patterns, threshold recommendations, group overview) through
// analyze -kind.
func TestCmdSeasonalRecommendOverview(t *testing.T) {
	dir := t.TempDir()
	power := filepath.Join(dir, "power.csv")
	capture(t, cmdGen, []string{"-kind", "electricity", "-n", "1", "-len", "14", "-out", power})

	s := capture(t, cmdAnalyze, []string{"-data", power, "-minlen", "12", "-maxlen", "12",
		"-kind", "seasonal", "-series", "household-00", "-band", "2"})
	if !strings.Contains(s, "length=12") {
		t.Fatalf("seasonal output: %s", s)
	}
	if err := captureErr(t, cmdAnalyze, []string{"-data", power, "-kind", "seasonal"}); err == nil {
		t.Fatal("seasonal without -series accepted")
	}

	data := genGrowth(t, dir)
	rec := capture(t, cmdAnalyze, []string{"-data", data, "-minlen", "4", "-maxlen", "8", "-kind", "threshold-recommend"})
	for _, want := range []string{"tight", "balanced", "loose"} {
		if !strings.Contains(rec, want) {
			t.Fatalf("threshold-recommend output missing %q:\n%s", want, rec)
		}
	}

	ov := capture(t, cmdAnalyze, []string{"-data", data, "-minlen", "4", "-maxlen", "8",
		"-kind", "overview", "-length", "6", "-k", "5"})
	if !strings.Contains(ov, "similarity groups") || !strings.Contains(ov, "count=") {
		t.Fatalf("overview output: %s", ov)
	}
}

// TestCmdAnalyze walks every -kind through the unified analyze subcommand.
func TestCmdAnalyze(t *testing.T) {
	dir := t.TempDir()
	power := filepath.Join(dir, "power.csv")
	capture(t, cmdGen, []string{"-kind", "electricity", "-n", "2", "-len", "14", "-out", power})
	open := []string{"-data", power, "-minlen", "6", "-maxlen", "12", "-band", "2"}

	run := func(extra ...string) string {
		return capture(t, cmdAnalyze, append(append([]string{}, open...), extra...))
	}

	if out := run("-kind", "overview", "-k", "3", "-stats"); !strings.Contains(out, "similarity groups") ||
		!strings.Contains(out, "stats:") {
		t.Fatalf("overview output: %s", out)
	}
	if out := run("-kind", "group-members", "-length", "6"); !strings.Contains(out, "members") {
		t.Fatalf("group-members output: %s", out)
	}
	if out := run("-kind", "length-summaries"); !strings.Contains(out, "subsequences") {
		t.Fatalf("length-summaries output: %s", out)
	}
	if out := run("-kind", "seasonal", "-series", "household-00", "-minocc", "2"); !strings.Contains(out, "occurrences=") {
		t.Fatalf("seasonal output: %s", out)
	}
	if out := run("-kind", "common-patterns", "-minseries", "2"); !strings.Contains(out, "series=") {
		t.Fatalf("common-patterns output: %s", out)
	}
	if out := run("-kind", "similarity-sweep", "-series", "household-00", "-len", "12",
		"-thresholds", "0.05,0.1"); !strings.Contains(out, "maxdist") {
		t.Fatalf("sweep output: %s", out)
	}
	if out := run("-kind", "threshold-recommend"); !strings.Contains(out, "balanced") {
		t.Fatalf("threshold-recommend output: %s", out)
	}

	if err := captureErr(t, cmdAnalyze, open); err == nil {
		t.Fatal("missing -kind accepted")
	}
	if err := captureErr(t, cmdAnalyze, append(append([]string{}, open...), "-kind", "bogus")); err == nil {
		t.Fatal("bogus -kind accepted")
	}
	if err := captureErr(t, cmdAnalyze, append(append([]string{}, open...),
		"-kind", "similarity-sweep", "-series", "household-00", "-len", "12",
		"-thresholds", "nope")); err == nil {
		t.Fatal("bad -thresholds accepted")
	}
	if err := captureErr(t, cmdAnalyze, append(append([]string{}, open...),
		"-kind", "similarity-sweep", "-thresholds", "0.1")); err == nil {
		t.Fatal("sweep without -series/-len accepted")
	}
}

func TestCmdViz(t *testing.T) {
	dir := t.TempDir()
	data := genGrowth(t, dir)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"match", []string{"-kind", "match", "-series", "MA", "-len", "8"}},
		{"radial", []string{"-kind", "radial", "-series", "MA", "-other", "CT"}},
		{"scatter", []string{"-kind", "scatter", "-series", "MA", "-other", "CT"}},
		{"overview", []string{"-kind", "overview", "-len", "6"}},
		{"seasonal", []string{"-kind", "seasonal", "-series", "MA", "-len", "5"}},
	} {
		out := filepath.Join(dir, tc.name+".svg")
		args := append([]string{"-data", data, "-minlen", "4", "-maxlen", "9", "-out", out}, tc.args...)
		capture(t, cmdViz, args)
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.HasPrefix(string(raw), "<svg") {
			t.Fatalf("%s: not an SVG", tc.name)
		}
	}
	if err := captureErr(t, cmdViz, []string{"-data", data, "-kind", "bogus", "-out", filepath.Join(dir, "x.svg")}); err == nil {
		t.Fatal("bogus viz kind accepted")
	}
	if err := captureErr(t, cmdViz, []string{"-data", data, "-kind", "match"}); err == nil {
		t.Fatal("viz without -out accepted")
	}
}

func TestFormatValues(t *testing.T) {
	s := formatValues([]float64{1, 2, 3, 4, 5}, 3)
	if !strings.Contains(s, "+2 more") {
		t.Fatalf("truncation marker missing: %s", s)
	}
	if got := formatValues([]float64{1.5}, 8); got != "[1.500]" {
		t.Fatalf("formatValues = %s", got)
	}
}

// TestCmdSnapshotCompactFlow drives the persistence lifecycle end to end:
// snapshot a CSV into a store, query it warm, compact, and check the warm
// answer matches the cold one exactly.
func TestCmdSnapshotCompactFlow(t *testing.T) {
	dir := t.TempDir()
	data := genGrowth(t, dir)
	storeDir := filepath.Join(dir, "growth.store")

	out := capture(t, cmdSnapshot, []string{"-data", data, "-minlen", "4", "-maxlen", "9", "-store", storeDir})
	if !strings.Contains(out, "snapshot written:") || !strings.Contains(out, "warm-open with:") {
		t.Fatalf("snapshot output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "snapshot.onex")); err != nil {
		t.Fatalf("store not created: %v", err)
	}

	// Warm query answers identically to the cold one.
	queryArgs := []string{"-series", "MA", "-start", "0", "-len", "8", "-exclude-source"}
	cold := capture(t, cmdQuery, append([]string{"-data", data, "-minlen", "4", "-maxlen", "9"}, queryArgs...))
	warm := capture(t, cmdQuery, append([]string{"-store", storeDir}, queryArgs...))
	if cold != warm {
		t.Fatalf("warm query differs from cold:\n%s\nvs\n%s", warm, cold)
	}

	out = capture(t, cmdCompact, []string{"-store", storeDir})
	if !strings.Contains(out, "compacted") {
		t.Fatalf("compact output:\n%s", out)
	}

	// Error paths: missing flags, conflicting open sources, empty store.
	if err := captureErr(t, cmdSnapshot, []string{"-data", data}); err == nil {
		t.Fatal("snapshot without -store accepted")
	}
	if err := captureErr(t, cmdSnapshot, []string{"-store", storeDir}); err == nil {
		t.Fatal("snapshot without -data accepted")
	}
	if err := captureErr(t, cmdQuery, append([]string{"-store", storeDir, "-data", data}, queryArgs...)); err == nil {
		t.Fatal("-store combined with -data accepted")
	}
	if err := captureErr(t, cmdCompact, []string{"-store", filepath.Join(dir, "empty.store")}); err == nil {
		t.Fatal("compact on a storeless directory accepted")
	}
	if err := captureErr(t, cmdCompact, []string{}); err == nil {
		t.Fatal("compact without -store accepted")
	}
}

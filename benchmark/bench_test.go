package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// tiny is a smoke-sized workload: every phase runs, nothing is big enough
// to measure.
func tiny() workload {
	return workload{
		name: "tiny", kind: "walks", series: 8, points: 48, minLen: 8, maxLen: 10, st: 0.05,
		cacheBytes: 1 << 20, poolSize: 4, poolK: 3,
		rounds: 1, repeatRounds: 1, setupReps: 1, approxQueries: 6, exactQueries: 4, parQueries: 2, streamQueries: 2,
		ingestAlone: 2, ingestMixed: 2, ingestTail: 2,
		recoverReps: 1, warmOpenReps: 1, replicaReps: 1,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkReport asserts every declared metric was emitted exactly once (add
// rejects duplicates, so present == once) with a finite value and a unit,
// and that no operation failed.
func checkReport(t *testing.T, rep *report) {
	t.Helper()
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
	}
	if m := rep.missing(); len(m) > 0 {
		t.Fatalf("metrics not emitted: %v", m)
	}
	if len(rep.values) != len(rep.defs) {
		t.Fatalf("%d metrics emitted, %d declared", len(rep.values), len(rep.defs))
	}
	seen := map[string]bool{}
	for _, d := range rep.defs {
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
		if !metricName.MatchString(d.name) || d.unit == "" {
			t.Errorf("metric %q unit %q: bad name or empty unit", d.name, d.unit)
		}
		if v := rep.values[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %q = %v", d.name, v)
		}
	}
}

func TestEndToEndSmoke(t *testing.T) {
	ctx := context.Background()
	a, err := runEndToEnd(ctx, tiny(), 1, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, a)
	b, err := runEndToEnd(ctx, tiny(), 1, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, b)
	// Counts repeat exactly for one seed.
	if x, y := a.values["store_amplification"], b.values["store_amplification"]; x != y {
		t.Errorf("store_amplification differs across runs of one seed: %v vs %v", x, y)
	}
}

func TestTracedSmoke(t *testing.T) {
	ctx := context.Background()
	run := func() *report {
		dir := t.TempDir()
		spans := filepath.Join(dir, "spans.json")
		rep, err := runTraced(ctx, tiny(), 1, dir, spans, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep)
		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		var ss []span
		if err := json.Unmarshal(data, &ss); err != nil || len(ss) == 0 {
			t.Fatalf("span file: %d spans, err %v", len(ss), err)
		}
		for i, s := range ss {
			if s.End < s.Start || s.Parent >= i {
				t.Fatalf("span %d malformed: %+v", i, s)
			}
		}
		return rep
	}
	a, b := run(), run()
	for _, name := range []string{"core.dtws_per_query", "core.groups_per_query", "grouping.groups", "store.snapshot_bytes"} {
		if a.values[name] != b.values[name] {
			t.Errorf("%s differs across runs of one seed: %v vs %v", name, a.values[name], b.values[name])
		}
	}
}

func TestSeedDecidesInputs(t *testing.T) {
	w := tiny()
	a, b, c := makeInputs(w, 1), makeInputs(w, 1), makeInputs(w, 2)
	if !reflect.DeepEqual(a.dataset.Series[0].Values, b.dataset.Series[0].Values) ||
		!reflect.DeepEqual(a.approx, b.approx) || !reflect.DeepEqual(a.ingest[0].Values, b.ingest[0].Values) {
		t.Error("the same seed gave different inputs")
	}
	// The corpus is the workload's; the seed perturbs what is sent to it.
	if !reflect.DeepEqual(a.dataset.Series[0].Values, c.dataset.Series[0].Values) {
		t.Error("a second seed changed the indexed corpus")
	}
	if reflect.DeepEqual(a.approx[0].Values, c.approx[0].Values) || reflect.DeepEqual(a.exact[0].Values, c.exact[0].Values) ||
		reflect.DeepEqual(a.pool[0].Values, c.pool[0].Values) || reflect.DeepEqual(a.ingest[0].Values, c.ingest[0].Values) {
		t.Error("a second seed left the queries or the ingested series unchanged")
	}
	for _, s := range a.dataset.Series {
		for _, v := range s.Values {
			if v < valueLo || v > valueHi {
				t.Fatalf("value %v outside [%v, %v]", v, valueLo, valueHi)
			}
		}
	}
}

// A run that fails must not leave its store directories behind.
func TestTempDirRemovedOnFailure(t *testing.T) {
	root := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, trace := range []bool{false, true} {
		_, err := runOne(ctx, options{workload: "explore-sparse", seed: 1, seconds: 1, trace: trace, tmpRoot: root}, io.Discard)
		if err == nil {
			t.Fatalf("trace=%v: run with a cancelled context succeeded", trace)
		}
	}
	if _, err := runOne(context.Background(), options{workload: "no-such", seconds: 1, tmpRoot: root}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
	left, err := filepath.Glob(filepath.Join(root, "run-*"))
	if err != nil || len(left) > 0 {
		t.Fatalf("temp directories left behind: %v (err %v)", left, err)
	}
}

// BENCHMARK.json is the driver's copy of the tables in metrics.go and
// workload.go; the two must not drift.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, referenceSeconds %d", manifest.RunSeconds, referenceSeconds)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if manifest.Workloads[i].Name != w.name || manifest.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %q/%q", i, manifest.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound mismatch", kind, d.name)
			}
		}
	}
	compare("end_to_end", manifest.EndToEnd, endToEnd, true)
	compare("per_layer", manifest.PerLayer, perLayer, false)
}

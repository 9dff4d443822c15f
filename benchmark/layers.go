package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/mmapdata"
	"repro/internal/replica"
	"repro/internal/servecache"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/ts"
	"repro/onex"
)

// Sizes of the traced run. Per-layer metrics carry no regression bound, so
// they take fewer samples than the end-to-end phases: the run has three
// index builds to pay for.
const (
	layerRounds  = 3 // measured passes per latency loop, after one warm-up
	layerQueries = 16
	layerExact   = 8
	layerIngests = 4
)

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink float64

// layers is the traced run: the same workload, measured by calling each
// layer's public API directly with the same queries at every depth.
type layers struct {
	ctx context.Context
	w   workload
	in  inputs
	rep *report
	log io.Writer
	tmp string

	band   int
	st     float64
	normed *ts.Dataset
	base   *grouping.Base
	engine *core.Engine
	// queries (original units) and their normalized vectors, same index.
	approx, exact   []onex.Query
	nApprox, nExact [][]float64
	dtwNs           float64

	*leader
	storeDir string
	used     int // ingest series consumed on db
	ingests  int // series per ingest measurement; the run consumes twice as many
}

func runTraced(ctx context.Context, w workload, seed int64, tmp, spansPath string, log io.Writer) (*report, error) {
	t := &layers{ctx: ctx, w: w, rep: newReport(perLayer), log: log, tmp: tmp, storeDir: filepath.Join(tmp, "leader")}
	defer func() { t.leader.close() }()
	t.in = makeInputs(w, seed)
	t.approx = t.in.approx[:min(layerQueries, len(t.in.approx))]
	t.exact = t.in.exact[:min(layerExact, len(t.in.exact))]
	if t.ingests = min(layerIngests, len(t.in.ingest)/2); t.ingests == 0 {
		return t.rep, fmt.Errorf("workload %s has %d ingest series, the traced run needs at least 2", w.name, len(t.in.ingest))
	}

	tr := newTracer()
	steps := []struct {
		name string
		fn   func() error
	}{
		{"ts+grouping", t.buildPieces},
		{"dist", t.distKernels},
		{"core", t.coreEngine},
		{"grouping", t.groupingIO},
		{"onex.Open", t.openDB},
		{"onex+server+trace", func() error { return t.queryDepths(tr) }},
		{"servecache", t.cacheLayer},
		{"ingest paths", t.ingestPaths},
		{"store", t.storeLayer},
		{"mmapdata", t.mmapLayer},
		{"replica", t.replicaLayer},
	}
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return t.rep, err
		}
		runtime.GC()
		start := time.Now()
		if err := s.fn(); err != nil {
			return t.rep, fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintf(log, "step %-20s %7.2f s\n", s.name, time.Since(start).Seconds())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.rep.add("proc.gc_cycles", float64(ms.NumGC), 1)
	t.rep.add("proc.gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6, 1)
	if err := tr.write(spansPath); err != nil {
		return t.rep, err
	}
	fmt.Fprintf(log, "spans written to %s\n", spansPath)
	return t.rep, nil
}

// ---- measurement helpers ----

// nsPerOp times calls invocations of fn five times and returns the median
// per-call cost in nanoseconds.
func nsPerOp(calls int, fn func(i int)) float64 {
	per := make([]float64, 5)
	for r := range per {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(start)) / float64(calls)
	}
	return median(per)
}

// medianMS runs fn reps times and returns the median duration in
// milliseconds.
func medianMS(reps int, fn func() error) (float64, error) {
	ms := make([]float64, reps)
	for i := range ms {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(ms), nil
}

// allocsPerOp reports heap allocations and bytes per call of fn.
func allocsPerOp(calls int, fn func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(calls)
}

// liveHeapMB is the heap in use after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// latencyRounds calls fn for every index in [0,n) layerRounds+1 times and
// returns the measured rounds in microseconds.
func latencyRounds(n int, fn func(i int) error) ([][]float64, error) {
	var out [][]float64
	for r := 0; r <= layerRounds; r++ {
		round := make([]float64, n)
		for i := range round {
			start := time.Now()
			if err := fn(i); err != nil {
				return nil, err
			}
			round[i] = float64(time.Since(start)) / float64(time.Microsecond)
		}
		if r > 0 {
			out = append(out, round)
		}
	}
	return out, nil
}

func (t *layers) normalize(vals []float64) []float64 {
	span := t.normed.Norm.Max - t.normed.Norm.Min
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = (v - t.normed.Norm.Min) / span
	}
	return out
}

func (t *layers) findOptions(mode core.Mode, workers int) core.FindOptions {
	return core.FindOptions{
		Options: core.Options{Band: t.band, Mode: mode, LengthNorm: true, Workers: workers},
		K:       freshK,
	}
}

// ---- ts, grouping.Build, core.NewEngine: what onex.Open is made of ----

func (t *layers) buildPieces() error {
	ms, err := medianMS(5, func() error { return ts.NormalizeMinMax(t.in.dataset.Clone()) })
	if err != nil {
		return err
	}
	cloneMS, _ := medianMS(5, func() error { t.in.dataset.Clone(); return nil })
	t.rep.add("ts.normalize_ms", math.Max(ms-cloneMS, 0), 5)

	t.normed = t.in.dataset.Clone()
	if err := ts.NormalizeMinMax(t.normed); err != nil {
		return err
	}
	t.band = max(4, t.w.maxLen/10) // onex.Open's default; checked against the DB in openDB
	t.st = t.w.st
	recommendS := 0.0 // stays 0 where the workload pins ST and never pays for a recommendation
	if t.st == 0 {
		start := time.Now()
		recs, err := core.RecommendThresholds(t.normed, core.ThresholdOptions{})
		if err != nil {
			return err
		}
		recommendS = time.Since(start).Seconds()
		for _, r := range recs {
			if r.Label == "balanced" {
				t.st = r.ST
			}
		}
	}
	t.rep.add("onex.recommend_st_s", recommendS, 1)

	start := time.Now()
	t.base, err = grouping.Build(t.normed, grouping.Options{ST: t.st, MinLength: t.w.minLen, MaxLength: t.w.maxLen})
	if err != nil {
		return err
	}
	t.rep.add("grouping.build_s", time.Since(start).Seconds(), 1)
	t.rep.add("grouping.subsequences", float64(t.base.NumSubsequences()), 1)
	t.rep.add("grouping.groups", float64(t.base.NumGroups()), 1)
	t.rep.add("grouping.compaction_ratio", t.base.CompactionRatio(), 1)

	t.engine, err = core.NewEngine(t.normed, t.base, core.Options{Band: t.band, LengthNorm: true})
	if err != nil {
		return err
	}
	for _, q := range t.approx {
		t.nApprox = append(t.nApprox, t.normalize(q.Values))
	}
	for _, q := range t.exact {
		t.nExact = append(t.nExact, t.normalize(q.Values))
	}
	return nil
}

// ---- dist: the kernels on the workload's own windows and band ----

func (t *layers) distKernels() error {
	// Pair every query with windows of every indexed length, spread over the
	// dataset, as a search does: unequal lengths widen the effective band,
	// and a candidate is rarely in cache.
	type pair struct {
		q, c, upper, lower []float64
		ub                 float64
	}
	pairs := make([]pair, 512)
	for j := range pairs {
		q := t.nApprox[j%len(t.nApprox)]
		l := t.w.minLen + j%(t.w.maxLen-t.w.minLen+1)
		s := t.normed.Series[(j*7)%t.normed.Len()]
		start := (j * 13) % (s.Len() - l + 1)
		c := s.Values[start : start+l]
		upper, lower := dist.Envelope(q, l, t.band)
		// Half the true distance as the bound: abandons about half way.
		pairs[j] = pair{q, c, upper, lower, dist.DTWBanded(q, c, t.band) / 2}
	}
	n := len(pairs)
	const calls = 4096
	t.dtwNs = nsPerOp(calls, func(i int) { p := &pairs[i%n]; sink += dist.DTWBanded(p.q, p.c, t.band) })
	t.rep.add("dist.dtw_ns", t.dtwNs, 5*calls)
	t.rep.add("dist.dtw_early_abandon_ns", nsPerOp(calls, func(i int) {
		p := &pairs[i%n]
		sink += dist.DTWEarlyAbandon(p.q, p.c, t.band, p.ub)
	}), 5*calls)
	t.rep.add("dist.lb_keogh_ns", nsPerOp(calls, func(i int) {
		p := &pairs[i%n]
		sink += dist.LBKeogh(p.c, p.upper, p.lower, math.Inf(1))
	}), 5*calls)
	t.rep.add("dist.lb_kim_ns", nsPerOp(calls, func(i int) { p := &pairs[i%n]; sink += dist.LBKim(p.q, p.c) }), 5*calls)
	t.rep.add("dist.envelope_ns", nsPerOp(calls, func(i int) {
		p := &pairs[i%n]
		u, _ := dist.Envelope(p.q, len(p.c), t.band)
		sink += u[0]
	}), 5*calls)
	path := func(i int) {
		p := &pairs[i%n]
		d, _ := dist.DTWPath(p.q, p.c, t.band)
		sink += d
	}
	t.rep.add("dist.dtw_path_ns", nsPerOp(calls/4, path), 5*calls/4)
	allocs, _ := allocsPerOp(calls, func(i int) { p := &pairs[i%n]; sink += dist.DTWBanded(p.q, p.c, t.band) })
	t.rep.add("dist.dtw_allocs_per_op", allocs, calls)
	_, pathBytes := allocsPerOp(calls/4, path)
	t.rep.add("dist.dtw_path_bytes_per_op", pathBytes, calls/4)
	return nil
}

// ---- core: Engine.Find and its progressive form, called directly ----

func (t *layers) coreEngine() error {
	var stats core.SearchStats
	approxFO := t.findOptions(core.ModeApprox, 1)
	find := func(qs [][]float64, fo core.FindOptions, keep bool) func(int) error {
		return func(i int) error {
			res, err := t.engine.Find(t.ctx, qs[i], fo)
			t.rep.op(err == nil && len(res.Matches) == fo.K, "core.Find query %d: %v", i, err)
			if keep {
				stats.Groups += res.Stats.Groups
				stats.GroupsLBPruned += res.Stats.GroupsLBPruned
				stats.GroupsRefined += res.Stats.GroupsRefined
				stats.Members += res.Stats.Members
				stats.RepDTW += res.Stats.RepDTW
				stats.MemberDTW += res.Stats.MemberDTW
			}
			return err
		}
	}
	approx, err := latencyRounds(len(t.nApprox), find(t.nApprox, approxFO, true))
	if err != nil {
		return err
	}
	t.rep.add("core.find_approx_p50_us", roundPercentile(approx, 50), layerRounds*len(t.nApprox))
	// Counts at Workers 1 repeat exactly, so the sum over all passes divides
	// evenly into a per-query mean.
	per := float64((layerRounds + 1) * len(t.nApprox))
	t.rep.add("core.groups_per_query", float64(stats.Groups)/per, len(t.nApprox))
	t.rep.add("core.pruned_ratio", float64(stats.GroupsLBPruned)/float64(stats.Groups), len(t.nApprox))
	t.rep.add("core.refined_per_query", float64(stats.GroupsRefined)/per, len(t.nApprox))
	t.rep.add("core.candidates_per_query", float64(stats.Members)/per, len(t.nApprox))
	t.rep.add("core.dtws_per_query", float64(stats.DTWs())/per, len(t.nApprox))
	t.rep.add("core.dtw_share", float64(stats.DTWs())/per*t.dtwNs/1e3/mean(flatten(approx)), len(t.nApprox))
	allocs, bytes := allocsPerOp(len(t.nApprox), func(i int) { _ = find(t.nApprox, approxFO, false)(i) })
	t.rep.add("core.find_allocs_per_op", allocs, len(t.nApprox))
	t.rep.add("core.find_bytes_per_op", bytes, len(t.nApprox))

	exact, err := latencyRounds(len(t.nExact), find(t.nExact, t.findOptions(core.ModeExact, 1), false))
	if err != nil {
		return err
	}
	t.rep.add("core.find_exact_p50_us", roundPercentile(exact, 50), layerRounds*len(t.nExact))
	par, err := latencyRounds(len(t.nExact), find(t.nExact, t.findOptions(core.ModeExact, runtime.GOMAXPROCS(0)), false))
	if err != nil {
		return err
	}
	t.rep.add("core.par_speedup", mean(flatten(exact))/mean(flatten(par)), layerRounds*len(t.nExact))

	// The progressive walk: first snapshot (the approximate answer), the
	// final one, and how many certified waves lay between.
	var firsts, waves []float64
	done, err := latencyRounds(len(t.nExact), func(i int) error {
		fo := t.findOptions(core.ModeExact, 1)
		start := time.Now()
		seen := false
		fo.Progress = func(s core.Snapshot) {
			if !seen {
				seen = true
				firsts = append(firsts, float64(time.Since(start))/float64(time.Microsecond))
			}
			if s.Final {
				waves = append(waves, float64(s.Wave))
			}
		}
		_, err := t.engine.Find(t.ctx, t.nExact[i], fo)
		t.rep.op(err == nil && seen, "core stream query %d: %v", i, err)
		return err
	})
	if err != nil {
		return err
	}
	firsts, waves = firsts[len(t.nExact):], waves[len(t.nExact):] // drop the warm-up pass
	t.rep.add("core.stream_first_p50_us", percentile(firsts, 50), len(firsts))
	t.rep.add("core.stream_done_p50_us", roundPercentile(done, 50), layerRounds*len(t.nExact))
	t.rep.add("core.stream_waves", mean(waves), len(waves))
	return nil
}

// ---- grouping: checksum, serialization, incremental insert ----

func (t *layers) groupingIO() error {
	ms, _ := medianMS(5, func() error { sink += float64(grouping.DatasetChecksum(t.normed) & 1); return nil })
	t.rep.add("grouping.checksum_ms", ms, 5)
	var buf bytes.Buffer
	ms, err := medianMS(3, func() error { buf.Reset(); return t.base.Write(&buf) })
	if err != nil {
		return err
	}
	t.rep.add("grouping.write_ms", ms, 3)
	var copyBase *grouping.Base
	ms, err = medianMS(3, func() (err error) { copyBase, err = grouping.Read(bytes.NewReader(buf.Bytes())); return err })
	if err != nil {
		return err
	}
	t.rep.add("grouping.read_ms", ms, 3)

	// Insert into copies, so the engine's base keeps matching its dataset.
	copyDS := t.normed.Clone()
	add := make([]float64, t.ingests)
	for i := range add {
		s := t.in.ingest[i]
		if err := copyDS.Add(ts.NewSeries(s.Name, t.normalize(s.Values))); err != nil {
			return err
		}
		start := time.Now()
		err := copyBase.AddSeries(copyDS, copyDS.Len()-1)
		add[i] = float64(time.Since(start)) / float64(time.Millisecond)
		t.rep.op(err == nil, "grouping.AddSeries: %v", err)
		if err != nil {
			return err
		}
	}
	t.rep.add("grouping.add_series_p50_ms", percentile(add, 50), len(add))
	return nil
}

// ---- onex.Open with a store, registered on a server ----

func (t *layers) openDB() error {
	before := liveHeapMB()
	start := time.Now()
	l, err := openLeader(t.w, t.in, t.storeDir)
	if err != nil {
		return err
	}
	t.rep.add("onex.open_s", time.Since(start).Seconds(), 1)
	t.leader = l
	t.rep.add("proc.heap_live_after_setup_mb", liveHeapMB()-before, 1)
	cfg := t.db.Config()
	t.rep.op(cfg.Band == t.band && cfg.ST == t.st, "onex.Open resolved band %d ST %g, the layer pieces used band %d ST %g", cfg.Band, cfg.ST, t.band, t.st)
	return nil
}

// ---- the same queries at every depth: HTTP, handler, onex.DB, core ----

// queryDepths sends each approximate query down every depth in turn —
// loopback untraced, loopback traced (handler span from the middleware),
// the handler on a recorder, onex.DB.Find, core.Engine.Find — inside one
// loop, so the depths share cache and heap state and their differences mean
// something. Untraced and traced swap places on alternate queries.
func (t *layers) queryDepths(tr *tracer) error {
	handler := t.srv.Handler()
	n := len(t.approx)
	reqs := make([]request, n)
	for i, q := range t.approx {
		reqs[i] = queryRequest(q, onex.ModeApprox, 1, true)
	}
	okBody := func(what string, i int, body []byte, status int) {
		var res onex.Result
		ok := status == http.StatusOK && json.Unmarshal(body, &res) == nil && len(res.Matches) == t.approx[i].K
		t.rep.op(ok, "%s query %d: status %d", what, i, status)
	}
	tracedLive, err := startServer(tr.middleware(handler))
	if err != nil {
		return err
	}
	defer tracedLive.stop()
	tracedCl := newClient(tracedLive.url)
	defer tracedCl.close()

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var plain, traced, recorded, onexLat [][]float64
	var sizes []float64
	approxFO := t.findOptions(core.ModeApprox, 1)
	for r := 0; r <= layerRounds; r++ {
		pl, td, rc, ox := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i, rq := range reqs {
			var httpID int
			loopback := func(withTrace bool) error {
				cl, rq := t.cl, rq
				if withTrace {
					httpID = tr.begin("http", i, -1)
					cl, rq.traced, rq.id, rq.parent = tracedCl, true, i, httpID
				}
				body, status, d, err := cl.do(t.ctx, rq)
				if withTrace {
					tr.end(httpID)
					td[i] = us(d)
				} else {
					pl[i] = us(d)
				}
				if err == nil {
					okBody("loopback", i, body, status)
				}
				return err
			}
			if err := loopback(i%2 == 1); err != nil {
				return err
			}
			if err := loopback(i%2 == 0); err != nil {
				return err
			}

			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
			req.Header.Set("Cache-Control", "no-cache")
			start := time.Now()
			handler.ServeHTTP(rec, req)
			rc[i] = us(time.Since(start))
			okBody("handler", i, rec.Body.Bytes(), rec.Code)
			sizes = append(sizes, float64(rec.Body.Len()))

			q := t.approx[i]
			q.Mode, q.Workers = onex.ModeApprox, 1
			// The middleware appended this request's handler span right
			// after its http span: the client is sequential.
			onexID := tr.begin("onex", i, httpID+1)
			start = time.Now()
			_, err := t.db.Find(t.ctx, q)
			ox[i] = us(time.Since(start))
			tr.end(onexID)
			t.rep.op(err == nil, "onex.Find query %d: %v", i, err)
			if err != nil {
				return err
			}
			coreID := tr.begin("core", i, onexID)
			res, err := t.engine.Find(t.ctx, t.nApprox[i], approxFO)
			tr.end(coreID)
			if err != nil {
				return err
			}
			tr.synthetic("dist", i, coreID, time.Duration(float64(res.Stats.DTWs())*t.dtwNs))
		}
		if r > 0 {
			plain, traced, recorded, onexLat = append(plain, pl), append(traced, td), append(recorded, rc), append(onexLat, ox)
		}
	}
	samples := layerRounds * n
	loopbackUS, handlerUS, onexUS := roundPercentile(plain, 50), roundPercentile(recorded, 50), roundPercentile(onexLat, 50)
	t.rep.add("onex.find_approx_p50_us", onexUS, samples)
	t.rep.add("server.handler_query_p50_us", handlerUS, samples)
	t.rep.add("server.response_bytes_p50", percentile(sizes, 50), len(sizes))
	t.rep.add("server.facade_overhead_p50_us", handlerUS-onexUS, samples)
	t.rep.add("server.http_overhead_p50_us", loopbackUS-handlerUS, samples)
	t.rep.add("trace_overhead_pct", 100*(roundPercentile(traced, 50)-loopbackUS)/loopbackUS, samples)

	// Self time per layer; the warm-up pass's spans are the first n of each
	// layer and are dropped.
	self := tr.selfTimes()
	sum := 0.0
	for _, l := range []struct{ span, metric string }{
		{"http", "trace.http_self_us"}, {"handler", "trace.handler_self_us"},
		{"onex", "trace.onex_self_us"}, {"core", "trace.core_self_us"}, {"dist", "trace.dist_us"},
	} {
		xs := self[l.span]
		if len(xs) != (layerRounds+1)*n {
			t.rep.fail("trace: %d %s spans, want %d", len(xs), l.span, (layerRounds+1)*n)
			continue
		}
		v := median(xs[n:])
		sum += v
		t.rep.add(l.metric, v, len(xs)-n)
	}
	t.rep.add("trace.self_sum_vs_e2e_pct", 100*math.Abs(sum-loopbackUS)/loopbackUS, samples)
	fmt.Fprintf(t.log, "loopback p50 %.1f us untraced; layer self times sum to %.1f us\n", loopbackUS, sum)

	// Exact mode at the onex depth, and what one loopback query allocates
	// process-wide (client and server side: they share the process).
	lat, err := latencyRounds(len(t.exact), func(i int) error {
		q := t.exact[i]
		q.Mode, q.Workers = onex.ModeExact, 1
		_, err := t.db.Find(t.ctx, q)
		t.rep.op(err == nil, "onex.Find exact query %d: %v", i, err)
		return err
	})
	if err != nil {
		return err
	}
	t.rep.add("onex.find_exact_p50_us", roundPercentile(lat, 50), layerRounds*len(t.exact))
	mallocs, _ := allocsPerOp(n, func(i int) { _, _, _, err = t.cl.do(t.ctx, reqs[i]) })
	t.rep.add("proc.mallocs_per_query", mallocs, n)
	return err
}

// ---- servecache: the hit and miss paths, and the server's own counters ----

func (t *layers) cacheLayer() error {
	var bodies [][]byte
	var before map[string]float64
	for r := 0; r < 3; r++ {
		if r == 1 { // the first pass filled the cache, where the pool fits
			var err error
			if before, err = scrape(t.ctx, t.cl); err != nil {
				return err
			}
		}
		for i, q := range t.in.pool {
			body, status, _, err := t.cl.do(t.ctx, queryRequest(q, onex.ModeApprox, 1, false))
			if err != nil {
				return err
			}
			t.rep.op(status == http.StatusOK, "pool query %d: status %d", i, status)
			if r == 0 {
				bodies = append(bodies, body)
			}
		}
	}
	after, err := scrape(t.ctx, t.cl)
	if err != nil {
		return err
	}
	hits := after["onex_cache_hits_total"] - before["onex_cache_hits_total"]
	misses := after["onex_cache_misses_total"] - before["onex_cache_misses_total"]
	t.rep.add("servecache.hit_rate", hits/(hits+misses), int(hits+misses))
	t.rep.add("servecache.evictions", after["onex_cache_evictions_total"], 1)
	t.rep.add("server.rejected", after["onex_rejected_total"], 1)

	// The cache's own operations on the workload's response bodies, in a
	// cache that holds them all.
	c := servecache.New(64 << 20)
	n := len(bodies)
	keys := make([]string, n)
	for i, q := range t.in.pool {
		keys[i] = servecache.CanonicalQuery(q)
	}
	const calls = 20000
	t.rep.add("servecache.put_ns", nsPerOp(calls, func(i int) { c.Put(keys[i%n], bodies[i%n]) }), 5*calls)
	t.rep.add("servecache.get_hit_ns", nsPerOp(calls, func(i int) {
		b, _ := c.Get(keys[i%n])
		sink += float64(len(b))
	}), 5*calls)
	t.rep.add("servecache.canonical_query_ns", nsPerOp(calls/10, func(i int) {
		sink += float64(len(servecache.CanonicalQuery(t.in.pool[i%n])))
	}), 5*calls/10)
	return nil
}

// ---- ingest at each depth: handler, store-backed DB, in-memory DB, replica ----

func (t *layers) ingestPaths() error {
	snapshot, err := os.ReadFile(store.SnapshotPath(t.storeDir)) // version 1: before any ingest
	if err != nil {
		return err
	}

	// The handler on a recorder: decode + AddSeries + WAL fsync + encode.
	handler := t.srv.Handler()
	lat := make([]float64, t.ingests)
	for i := range lat {
		s := t.in.ingest[t.used]
		t.used++
		req := httptest.NewRequest(http.MethodPost, queryPath("/series"),
			bytes.NewReader(mustJSON(server.AddSeriesRequest{Series: s.Name, Values: s.Values})))
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, req)
		lat[i] = float64(time.Since(start)) / float64(time.Millisecond)
		t.rep.op(rec.Code == http.StatusOK, "ingest handler: status %d", rec.Code)
	}
	t.rep.add("server.ingest_handler_p50_ms", percentile(lat, 50), len(lat))

	// A replica built from the version-1 snapshot applies the same series.
	rdb, err := onex.OpenReplica(snapshot, onex.Config{})
	if err != nil {
		return err
	}
	for i := range lat {
		s := t.in.ingest[i]
		start := time.Now()
		err := rdb.ApplyReplicated(uint64(2+i), s.Name, s.Values)
		lat[i] = float64(time.Since(start)) / float64(time.Millisecond)
		t.rep.op(err == nil, "ApplyReplicated: %v", err)
	}
	t.rep.add("onex.apply_replicated_p50_ms", percentile(lat, 50), len(lat))

	// An in-memory DB (no store): the same insert without the WAL, then
	// queries racing a back-to-back writer — the write-lock stall.
	mem, err := onex.Open(t.in.dataset, onex.Config{ST: t.st, MinLength: t.w.minLen, MaxLength: t.w.maxLen})
	if err != nil {
		return err
	}
	for i := range lat {
		s := t.in.ingest[i]
		start := time.Now()
		err := mem.AddSeries(s.Name, s.Values)
		lat[i] = float64(time.Since(start)) / float64(time.Millisecond)
		t.rep.op(err == nil, "in-memory AddSeries: %v", err)
	}
	t.rep.add("onex.add_series_mem_p50_ms", percentile(lat, 50), len(lat))
	done := make(chan error, 1)
	go func() {
		for _, s := range t.in.ingest[t.ingests : 2*t.ingests] {
			if err := mem.AddSeries(s.Name, s.Values); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var under []float64
	for i := 0; ; i++ {
		select {
		case err := <-done:
			t.rep.op(err == nil, "writer under queries: %v", err)
			if len(under) == 0 {
				return fmt.Errorf("no Find completed while the writer ran")
			}
			t.rep.add("onex.find_under_ingest_p50_us", percentile(under, 50), len(under))
			return err
		default:
		}
		q := t.approx[i%len(t.approx)]
		q.Mode, q.Workers = onex.ModeApprox, 1
		start := time.Now()
		_, err := mem.Find(t.ctx, q)
		under = append(under, float64(time.Since(start))/float64(time.Microsecond))
		if err != nil {
			<-done
			return err
		}
	}
}

// ---- store: snapshot codec, load, WAL ----

func (t *layers) storeLayer() error {
	data, err := os.ReadFile(store.SnapshotPath(t.storeDir))
	if err != nil {
		return err
	}
	t.rep.add("store.snapshot_bytes", float64(len(data)), 1)
	var st *store.State
	ms, err := medianMS(3, func() (err error) { st, err = store.DecodeSnapshot(data); return err })
	if err != nil {
		return err
	}
	t.rep.add("store.decode_snapshot_ms", ms, 3)
	if ms, err = medianMS(3, func() error { _, err := store.EncodeSnapshot(st); return err }); err != nil {
		return err
	}
	t.rep.add("store.encode_snapshot_ms", ms, 3)

	// Load = snapshot decode + WAL decode, on a copy holding the ingests so far.
	loadDir := filepath.Join(t.tmp, "load")
	if err := copyDir(t.storeDir, loadDir); err != nil {
		return err
	}
	if ms, err = medianMS(3, func() error {
		fs, err := store.Open(loadDir)
		if err != nil {
			return err
		}
		defer fs.Close()
		res, err := fs.Load()
		if err == nil {
			t.rep.op(len(res.Records) == t.used, "store.Load: %d WAL records, want %d", len(res.Records), t.used)
		}
		return err
	}); err != nil {
		return err
	}
	t.rep.add("store.load_ms", ms, 3)

	// WAL appends on a scratch store, with and without the per-append fsync.
	fs, err := store.Open(filepath.Join(t.tmp, "wal"))
	if err != nil {
		return err
	}
	defer fs.Close()
	seq := uint64(0)
	appendUS := func(n int) (float64, error) {
		us := make([]float64, n)
		for i := range us {
			s := t.in.ingest[i%len(t.in.ingest)]
			seq++
			start := time.Now()
			if err := fs.Append(store.Record{Seq: seq, Name: s.Name, Values: s.Values}); err != nil {
				return 0, err
			}
			us[i] = float64(time.Since(start)) / float64(time.Microsecond)
		}
		return percentile(us, 50), nil
	}
	us, err := appendUS(40)
	if err != nil {
		return err
	}
	t.rep.add("store.wal_append_fsync_p50_us", us, 40)
	fs.SetFsyncEvery(1 << 30)
	if us, err = appendUS(400); err != nil {
		return err
	}
	t.rep.add("store.wal_append_nosync_p50_us", us, 400)
	if err := fs.Flush(); err != nil {
		return err
	}
	status := fs.Status()
	t.rep.add("store.wal_bytes_per_record", float64(status.WALBytes)/float64(status.WALRecords), status.WALRecords)
	wal, err := os.ReadFile(filepath.Join(t.tmp, "wal", "wal.log"))
	if err != nil {
		return err
	}
	if ms, err = medianMS(5, func() error {
		recs, _, err := store.DecodeWAL(wal)
		if err == nil && len(recs) != status.WALRecords {
			err = fmt.Errorf("decoded %d WAL records, wrote %d", len(recs), status.WALRecords)
		}
		return err
	}); err != nil {
		return err
	}
	t.rep.add("store.decode_wal_ms", ms, 5)
	return nil
}

// ---- mmapdata: the compacted snapshot opened mapped and eager ----

func (t *layers) mmapLayer() error {
	if err := t.db.Snapshot(); err != nil { // compact: fold the ingests into the snapshot
		return err
	}
	dir := filepath.Join(t.tmp, "mapped")
	if err := copyDir(t.storeDir, dir); err != nil {
		return err
	}
	ms, err := medianMS(3, func() error {
		st, err := mmapdata.OpenState(store.SnapshotPath(dir))
		if err != nil {
			return err
		}
		st.Dataset.Source.Release()
		return nil
	})
	if err != nil {
		return err
	}
	t.rep.add("mmapdata.open_state_ms", ms, 3)

	open := func(mmap bool) (*onex.DB, float64, error) {
		before := liveHeapMB()
		db, err := onex.OpenStore(dir, onex.Config{CompactBytes: -1, MmapValues: mmap})
		if err != nil {
			return nil, 0, err
		}
		return db, liveHeapMB() - before, nil
	}
	eager, heap, err := open(false)
	if err != nil {
		return err
	}
	t.rep.add("mmapdata.heap_live_eager_mb", heap, 1)
	eager.Close()
	eager = nil

	mapped, heap, err := open(true)
	if err != nil {
		return err
	}
	defer mapped.Close()
	t.rep.add("mmapdata.heap_live_mmap_mb", heap, 1)
	st, _ := mapped.StoreStatus()
	t.rep.add("mmapdata.mapped_bytes", float64(st.MappedBytes), 1)
	t.rep.add("mmapdata.resident_after_open_bytes", float64(st.MappedResidentBytes), 1)
	for i, q := range t.approx {
		q.Mode, q.Workers = onex.ModeApprox, 1
		_, err := mapped.Find(t.ctx, q)
		t.rep.op(err == nil, "mmap-backed Find query %d: %v", i, err)
	}
	st, _ = mapped.StoreStatus()
	t.rep.add("mmapdata.resident_after_queries_bytes", float64(st.MappedResidentBytes), 1)
	return nil
}

// ---- replica: bootstrap and WAL-tail apply against the live leader ----

func (t *layers) replicaLayer() error {
	// The leader was just compacted; these store-backed ingests are both the
	// onex.AddSeries-with-WAL measurement and the tail the follower applies.
	snapVersion := t.db.Version()
	lat := make([]float64, t.ingests)
	for i := range lat {
		s := t.in.ingest[t.used]
		t.used++
		start := time.Now()
		err := t.db.AddSeries(s.Name, s.Values)
		lat[i] = float64(time.Since(start)) / float64(time.Millisecond)
		t.rep.op(err == nil, "store-backed AddSeries: %v", err)
	}
	t.rep.add("onex.add_series_store_p50_ms", percentile(lat, 50), len(lat))

	src, ok := t.db.ReplicationSource()
	if !ok {
		return fmt.Errorf("leader has no replication source")
	}
	tail, _, err := src.TailSince(snapVersion)
	if err != nil {
		return err
	}
	st, _ := t.db.StoreStatus()
	t.rep.add("replica.ship_bytes", float64(st.SnapshotBytes)+float64(len(store.EncodeWALStream(tail))), 1)

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	fctx, cancel := context.WithTimeout(t.ctx, 2*time.Minute)
	defer cancel()
	f := replica.New(t.live.url, datasetName, replica.Options{Client: &http.Client{Transport: tr}, PollWait: time.Second})
	stopped := make(chan struct{})
	start := time.Now()
	go func() { _ = f.Run(fctx); close(stopped) }()
	err = f.WaitCaughtUp(fctx, snapVersion)
	bootstrap := time.Since(start)
	if err == nil {
		err = f.WaitCaughtUp(fctx, t.db.Version())
	}
	caughtUp := time.Since(start)
	cancel()
	<-stopped
	if err != nil {
		t.rep.op(false, "replica: never caught up: %v", err)
		return err
	}
	t.rep.op(f.DB().Version() == t.db.Version(), "replica: version %d, leader %d", f.DB().Version(), t.db.Version())
	t.rep.add("replica.bootstrap_s", bootstrap.Seconds(), 1)
	t.rep.add("replica.apply_per_s", float64(len(tail))/(caughtUp-bootstrap).Seconds(), len(tail))
	return nil
}

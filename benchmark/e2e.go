package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/ts"
	"repro/onex"
)

// e2e is the untraced run: the phase script driven over loopback HTTP.
type e2e struct {
	ctx context.Context
	w   workload
	in  inputs
	rep *report
	log io.Writer
	tmp string

	*leader
	storeDir string
	acked    int // ingests the server acknowledged
	ingested int // next series of in.ingest to send
	points   int // values in the dataset, ingests included
	// exactKeys are the fresh-exact answers; stream finals must equal them.
	exactKeys []string

	phases []phase
}

// phase is one step of the script and the wall time it took.
type phase struct {
	name string
	secs float64
}

// runEndToEnd executes the phase script and fills a report with every
// end-to-end metric.
func runEndToEnd(ctx context.Context, w workload, seed int64, tmp string, log io.Writer) (*report, error) {
	e := &e2e{ctx: ctx, w: w, rep: newReport(endToEnd), log: log, tmp: tmp, storeDir: filepath.Join(tmp, "leader")}
	defer func() { e.leader.close() }()

	if err := e.setup(seed); err != nil {
		return e.rep, err
	}
	script := []struct {
		name string
		fn   func() error
	}{
		{"correctness", e.gate},
		{"fresh-approx", e.freshApprox},
		{"fresh-exact", e.freshExact},
		{"exact-parallel", e.exactParallel},
		{"stream", e.streamFirst},
		{"repeat", e.repeat},
		{"ingest", e.ingestAlone},
		{"queries-under-ingest", e.queriesUnderIngest},
		{"recover-open", e.recoverOpen},
		{"warm-open", e.warmOpen},
		{"replica", e.replicaCatchup},
	}
	for _, p := range script {
		if err := ctx.Err(); err != nil {
			return e.rep, err
		}
		runtime.GC() // noise rule d: no phase pays for its predecessor's garbage
		start := time.Now()
		if err := p.fn(); err != nil {
			return e.rep, fmt.Errorf("%s: %w", p.name, err)
		}
		e.phases = append(e.phases, phase{p.name, time.Since(start).Seconds()})
	}
	rss, err := peakRSSMB()
	if err != nil {
		return e.rep, err
	}
	e.rep.add("peak_rss_mb", rss, 1)
	e.printPhases()
	return e.rep, nil
}

// printPhases shows where the run's wall time went; README.md uses it to
// show that the write path is most of ingest-wide.
func (e *e2e) printPhases() {
	total := 0.0
	for _, p := range e.phases {
		total += p.secs
	}
	for _, p := range e.phases {
		fmt.Fprintf(e.log, "phase %-22s %7.2f s %5.1f%%\n", p.name, p.secs, 100*p.secs/total)
	}
}

// setup times generate + onex.Open with a store + register and serve, as
// many times as the workload asks, and keeps the last instance.
func (e *e2e) setup(seed int64) error {
	var secs []float64
	for i := 0; i < e.w.setupReps; i++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		e.leader.close()
		e.leader = nil
		if err := os.RemoveAll(e.storeDir); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		e.in = makeInputs(e.w, seed)
		l, err := openLeader(e.w, e.in, e.storeDir)
		e.rep.op(err == nil, "setup: %v", err)
		if err != nil {
			return err
		}
		secs = append(secs, time.Since(start).Seconds())
		e.leader = l
	}
	e.rep.add("setup_s", median(secs), len(secs))
	e.phases = append(e.phases, phase{"setup", mean(secs) * float64(len(secs))})
	e.points = e.in.dataset.TotalValues()
	st := e.db.Stats()
	fmt.Fprintf(e.log, "dataset %d series x %d points, lengths %d-%d, ST %.5f: %d subsequences in %d groups (ratio %.2f)\n",
		e.w.series, e.w.points, e.w.minLen, e.w.maxLen, e.db.ST(), st.Subsequences, st.Groups, st.CompactionRatio)
	return nil
}

// queryRequest prepares one unified-query call.
func queryRequest(q onex.Query, mode onex.QueryMode, workers int, noCache bool) request {
	q.Mode, q.Workers = mode, workers
	return request{method: http.MethodPost, path: queryPath("/query"), body: mustJSON(q), noCache: noCache}
}

// matchKey identifies an answer: which windows, in which order.
func matchKey(ms []onex.Match) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s@%d+%d;", m.Series, m.Start, m.Length)
	}
	return b.String()
}

// checkResult counts one query as an operation and validates its response:
// well-formed, K matches, best first. It returns the decoded result for
// further comparison.
func (e *e2e) checkResult(what string, body []byte, status, k int) (onex.Result, bool) {
	var res onex.Result
	if status != http.StatusOK {
		e.rep.op(false, "%s: status %d: %.120s", what, status, body)
		return res, false
	}
	if err := json.Unmarshal(body, &res); err != nil {
		e.rep.op(false, "%s: decode: %v", what, err)
		return res, false
	}
	if len(res.Matches) != k {
		e.rep.op(false, "%s: %d matches, want %d", what, len(res.Matches), k)
		return res, false
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].Dist < res.Matches[i-1].Dist {
			e.rep.op(false, "%s: matches not ordered best first", what)
			return res, false
		}
	}
	e.rep.op(true, "")
	return res, true
}

// queryRounds sends every request rounds+1 times in order and returns the
// measured rounds' latencies in milliseconds plus each query's answer key.
// The data does not change during a latency phase, so an answer that
// differs from the warm-up round's is a wrong answer and a failed
// operation.
func (e *e2e) queryRounds(what string, reqs []request, ks []int, rounds int) ([][]float64, []string, error) {
	keys := make([]string, len(reqs))
	out := make([][]float64, 0, rounds)
	for r := 0; r <= rounds; r++ {
		lat := make([]float64, len(reqs))
		for i, rq := range reqs {
			body, status, d, err := e.cl.do(e.ctx, rq)
			if err != nil {
				return nil, nil, err
			}
			lat[i] = float64(d) / float64(time.Millisecond)
			res, ok := e.checkResult(what, body, status, ks[i])
			if !ok {
				continue
			}
			key := matchKey(res.Matches)
			if r == 0 {
				keys[i] = key
			}
			e.rep.op(key == keys[i], "%s: query %d answered %q, then %q", what, i, keys[i], key)
		}
		if r > 0 {
			out = append(out, lat)
		}
	}
	return out, keys, nil
}

// latencyPhase runs one latency phase and reports the median over rounds of
// each named per-round percentile.
func (e *e2e) latencyPhase(what string, qs []onex.Query, rounds int, mode onex.QueryMode, workers int, noCache bool, metrics map[float64]string) ([]string, error) {
	reqs := make([]request, len(qs))
	ks := make([]int, len(qs))
	for i, q := range qs {
		reqs[i], ks[i] = queryRequest(q, mode, workers, noCache), q.K
	}
	lat, keys, err := e.queryRounds(what, reqs, ks, rounds)
	if err != nil {
		return nil, err
	}
	n := rounds * len(qs)
	for p, name := range metrics {
		e.rep.add(name, roundPercentile(lat, p), n)
	}
	top := supportedPercentile(n)
	fmt.Fprintf(e.log, "%s: n=%d median %.3f ms, p%g %.3f ms (all rounds pooled); per-round p50",
		what, n, percentile(flatten(lat), 50), top, percentile(flatten(lat), top))
	for _, r := range lat[:min(len(lat), 8)] {
		fmt.Fprintf(e.log, " %.3f", percentile(r, 50))
	}
	fmt.Fprintln(e.log)
	return keys, nil
}

func (e *e2e) freshApprox() error {
	_, err := e.latencyPhase("fresh-approx", e.in.approx, e.w.rounds, onex.ModeApprox, 1, true,
		map[float64]string{50: "query_approx_p50_ms", 90: "query_approx_p90_ms"})
	return err
}

func (e *e2e) freshExact() error {
	keys, err := e.latencyPhase("fresh-exact", e.in.exact, e.w.rounds, onex.ModeExact, 1, true,
		map[float64]string{50: "query_exact_p50_ms", 90: "query_exact_p90_ms"})
	e.exactKeys = keys
	return err
}

func (e *e2e) exactParallel() error {
	_, err := e.latencyPhase("exact-parallel", e.in.exact[:e.w.parQueries], e.w.rounds, onex.ModeExact, runtime.GOMAXPROCS(0), true,
		map[float64]string{50: "query_exact_par_p50_ms"})
	return err
}

// streamFirst measures request sent → first NDJSON update. Every stream is
// drained to its final update, which must equal the exact answer.
func (e *e2e) streamFirst() error {
	qs := e.in.exact[:e.w.streamQueries]
	var lat [][]float64
	for r := 0; r <= e.w.rounds; r++ {
		round := make([]float64, len(qs))
		for i, q := range qs {
			q.Workers = 1
			rq := request{method: http.MethodPost, path: queryPath("/query/stream"), body: mustJSON(q)}
			first, lines, last, status, err := e.cl.stream(e.ctx, rq)
			if err != nil {
				return err
			}
			round[i] = float64(first) / float64(time.Millisecond)
			var u onex.Update
			ok := status == http.StatusOK && lines >= 2 && json.Unmarshal(last, &u) == nil && u.Final
			e.rep.op(ok, "stream: query %d: status %d, %d lines, final=%v", i, status, lines, u.Final)
			e.rep.op(matchKey(u.Matches) == e.exactKeys[i], "stream: query %d: final update differs from the exact answer", i)
		}
		if r > 0 {
			lat = append(lat, round)
		}
	}
	e.rep.add("stream_first_p50_ms", roundPercentile(lat, 50), e.w.rounds*len(qs))
	return nil
}

// repeat re-issues the pool with the cache allowed: the warm-up round fills
// the cache (where the pool fits), measured rounds hit or miss it. A hit is
// ~50 us, most of it two scheduler hand-offs, and interference only ever
// adds to it: from run to run the median of a round moved ±15% while its
// lower quartile moved ±3%. So this one metric is a round's 25th
// percentile, and a small pool is passed over many more times than
// w.rounds.
func (e *e2e) repeat() error {
	_, err := e.latencyPhase("repeat", e.in.pool, e.w.repeatRounds, onex.ModeApprox, 1, false,
		map[float64]string{25: "repeat_query_p25_ms"})
	return err
}

// ingestResult is one POST .../series outcome.
type ingestResult struct {
	ms     float64
	status int
	detail string
}

// postSeries appends the next n ingest series with c, back to back. It
// touches no shared state, so a writer goroutine may run it; the caller
// accounts for the results with noteIngests.
func postSeries(ctx context.Context, c *client, series []*ts.Series) ([]ingestResult, error) {
	out := make([]ingestResult, 0, len(series))
	for _, s := range series {
		rq := request{
			method: http.MethodPost, path: queryPath("/series"),
			body: mustJSON(server.AddSeriesRequest{Series: s.Name, Values: s.Values}),
		}
		body, status, d, err := c.do(ctx, rq)
		if err != nil {
			return out, err
		}
		out = append(out, ingestResult{float64(d) / float64(time.Millisecond), status, fmt.Sprintf("%.120s", body)})
	}
	return out, nil
}

// nextIngests hands out the next n series of the seed's ingest sequence.
func (e *e2e) nextIngests(n int) []*ts.Series {
	s := e.in.ingest[e.ingested : e.ingested+n]
	e.ingested += n
	return s
}

// noteIngests counts acknowledged appends and returns their latencies.
func (e *e2e) noteIngests(series []*ts.Series, res []ingestResult) []float64 {
	lat := make([]float64, len(res))
	for i, r := range res {
		lat[i] = r.ms
		e.rep.op(r.status == http.StatusOK, "ingest %s: status %d: %s", series[i].Name, r.status, r.detail)
		if r.status == http.StatusOK {
			e.acked++
			e.points += len(series[i].Values)
		}
	}
	return lat
}

// ingest appends the next n series on the query client's connection.
func (e *e2e) ingest(n int) ([]float64, error) {
	series := e.nextIngests(n)
	res, err := postSeries(e.ctx, e.cl, series)
	return e.noteIngests(series, res), err
}

// ingestAlone appends series with no readers; every append is fsynced.
func (e *e2e) ingestAlone() error {
	lat, err := e.ingest(e.w.ingestAlone)
	if err != nil {
		return err
	}
	e.rep.add("ingest_p50_ms", percentile(lat, 50), len(lat))
	return nil
}

// queriesUnderIngest runs the query client while a second client ingests
// back-to-back: one reader, one writer, never more load generators than
// cores. The writer's count is fixed; the reader loops until it is done.
//
// The metric is the mean, not a percentile. The query handler takes the
// DB's read lock three times (Version, Find, Version) and the writer
// re-takes the write lock within microseconds of releasing it, so a query
// waits out one, two or three whole inserts depending on who wins each
// race; on explore-compact the split between one and two is about even and
// the median flips between 50 ms and 100 ms from run to run.
func (e *e2e) queriesUnderIngest() error {
	writer := newClient(e.live.url)
	defer writer.close()
	series := e.nextIngests(e.w.ingestMixed)
	type outcome struct {
		res []ingestResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := postSeries(e.ctx, writer, series)
		done <- outcome{res, err}
	}()
	var lat []float64
	for i := 0; ; i++ {
		select {
		case w := <-done:
			e.noteIngests(series, w.res)
			if w.err != nil {
				return w.err
			}
			if len(lat) == 0 {
				return fmt.Errorf("no query completed while the writer ran")
			}
			e.rep.add("query_under_ingest_mean_ms", mean(lat), len(lat))
			return nil
		default:
		}
		q := e.in.approx[i%len(e.in.approx)]
		body, status, d, err := e.cl.do(e.ctx, queryRequest(q, onex.ModeApprox, 1, true))
		if err != nil {
			<-done
			return err
		}
		e.checkResult("query-under-ingest", body, status, q.K)
		lat = append(lat, float64(d)/float64(time.Millisecond))
	}
}

// probe is the query every reopened or replicated copy must answer exactly
// as the leader does.
func (e *e2e) probe(mode onex.QueryMode) onex.Query {
	q := e.in.approx[0]
	q.Mode, q.Workers = mode, 1
	return q
}

// openAndProbe times onex.OpenStore on dir plus one approximate Find, and
// checks the reopened state against the leader: same version, same answer.
func (e *e2e) openAndProbe(what, dir string) (float64, error) {
	want, err := e.db.Find(e.ctx, e.probe(onex.ModeApprox))
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	db, err := onex.OpenStore(dir, onex.Config{CompactBytes: -1})
	if err != nil {
		e.rep.op(false, "%s: %v", what, err)
		return 0, err
	}
	defer db.Close()
	got, err := db.Find(e.ctx, e.probe(onex.ModeApprox))
	secs := time.Since(start).Seconds()
	if err != nil {
		e.rep.op(false, "%s: find: %v", what, err)
		return 0, err
	}
	e.rep.op(db.Version() == uint64(1+e.acked), "%s: version %d, want %d (1 + %d acked ingests)", what, db.Version(), 1+e.acked, e.acked)
	e.rep.op(matchKey(got.Matches) == matchKey(want.Matches), "%s: reopened copy answers differently from the leader", what)
	return secs, nil
}

// recoverOpen is the crash path: the store as a kill would leave it (first
// snapshot plus the whole un-compacted WAL), opened recoverReps times.
func (e *e2e) recoverOpen() error {
	dir := filepath.Join(e.tmp, "crashed")
	if err := copyDir(e.storeDir, dir); err != nil {
		return err
	}
	secs := make([]float64, e.w.recoverReps)
	for i := range secs {
		var err error
		if secs[i], err = e.openAndProbe("recover-open", dir); err != nil {
			return err
		}
	}
	e.rep.add("recover_open_s", median(secs), len(secs))
	return nil
}

// warmOpen compacts the leader and opens the resulting snapshot.
func (e *e2e) warmOpen() error {
	if err := e.db.Snapshot(); err != nil {
		return err
	}
	st, _ := e.db.StoreStatus()
	e.rep.add("store_amplification", float64(st.SnapshotBytes)/float64(8*e.points), 1)

	dir := filepath.Join(e.tmp, "compacted")
	if err := copyDir(e.storeDir, dir); err != nil {
		return err
	}
	secs := make([]float64, e.w.warmOpenReps)
	for i := range secs {
		var err error
		if secs[i], err = e.openAndProbe("warm-open", dir); err != nil {
			return err
		}
	}
	e.rep.add("warm_open_s", median(secs), len(secs))
	return nil
}

// replicaCatchup puts a WAL tail on top of the compacted snapshot, then
// times fresh followers from nothing to caught up: snapshot bootstrap plus
// tail apply. Each must equal the leader at the leader's version.
func (e *e2e) replicaCatchup() error {
	if _, err := e.ingest(e.w.ingestTail); err != nil {
		return err
	}
	want, err := e.db.Find(e.ctx, e.probe(onex.ModeExact))
	if err != nil {
		return err
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	secs := make([]float64, e.w.replicaReps)
	for i := range secs {
		runtime.GC()
		fctx, cancel := context.WithCancel(e.ctx)
		f := replica.New(e.live.url, datasetName, replica.Options{Client: &http.Client{Transport: tr}, PollWait: time.Second})
		stopped := make(chan struct{})
		start := time.Now()
		go func() { _ = f.Run(fctx); close(stopped) }()
		wctx, wcancel := context.WithTimeout(fctx, 2*time.Minute)
		err := f.WaitCaughtUp(wctx, e.db.Version())
		secs[i] = time.Since(start).Seconds()
		wcancel()
		if err == nil {
			fdb := f.DB()
			e.rep.op(fdb.Version() == e.db.Version(), "replica: version %d, leader %d", fdb.Version(), e.db.Version())
			got, ferr := fdb.Find(e.ctx, e.probe(onex.ModeExact))
			e.rep.op(ferr == nil && sameMatches(got.Matches, want.Matches), "replica: follower answers differently from the leader (%v)", ferr)
		}
		cancel()
		<-stopped
		if err != nil {
			e.rep.op(false, "replica: never caught up: %v", err)
			return err
		}
	}
	e.rep.add("replica_catchup_s", median(secs), len(secs))
	return nil
}

// sameMatches is bit-for-bit equality of two answers.
func sameMatches(a, b []onex.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Series != b[i].Series || a[i].Start != b[i].Start || a[i].Length != b[i].Length || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

var wallMicros = regexp.MustCompile(`"wall_micros":\d+`)

// gate is the correctness gate, run before anything is timed: the exact
// answer is the brute-force answer, the approximate answer is never better
// than it, and a cached response is the fresh response.
func (e *e2e) gate() error {
	normed := e.in.dataset.Clone()
	if err := ts.NormalizeMinMax(normed); err != nil {
		return err
	}
	span := normed.Norm.Max - normed.Norm.Min
	band := e.db.Config().Band
	for i, q := range e.in.gate {
		body, status, _, err := e.cl.do(e.ctx, queryRequest(q, onex.ModeExact, 1, true))
		if err != nil {
			return err
		}
		exact, ok := e.checkResult("gate exact", body, status, q.K)
		if !ok {
			continue
		}
		nq := make([]float64, len(q.Values))
		for j, v := range q.Values {
			nq[j] = (v - normed.Norm.Min) / span
		}
		l := len(nq)
		want, err := bruteforce.KBest(normed, nq, q.K, bruteforce.Options{
			Band: band, MinLength: l, MaxLength: l, EarlyAbandon: true, LengthNormalize: true,
		})
		if err != nil {
			return err
		}
		e.rep.op(equalsOracle(exact.Matches, want, normed), "gate: exact answer to query %d differs from brute force", i)

		body, status, _, err = e.cl.do(e.ctx, queryRequest(q, onex.ModeApprox, 1, true))
		if err != nil {
			return err
		}
		if approx, ok := e.checkResult("gate approx", body, status, q.K); ok {
			e.rep.op(approx.Matches[0].Dist >= exact.Matches[0].Dist-1e-12,
				"gate: approximate answer to query %d (%.9g) beats the exact one (%.9g)", i, approx.Matches[0].Dist, exact.Matches[0].Dist)
		}
	}

	// Cached == fresh, modulo the one volatile stats field.
	rq := queryRequest(e.in.gate[0], onex.ModeApprox, 1, false)
	first, _, _, err := e.cl.do(e.ctx, rq)
	if err != nil {
		return err
	}
	cached, _, _, err := e.cl.do(e.ctx, rq)
	if err != nil {
		return err
	}
	rq.noCache = true
	fresh, _, _, err := e.cl.do(e.ctx, rq)
	if err != nil {
		return err
	}
	e.rep.op(string(first) == string(cached), "gate: second (cached) response differs from the first")
	strip := func(b []byte) string { return string(wallMicros.ReplaceAll(b, []byte(`"wall_micros":0`))) }
	e.rep.op(strip(cached) == strip(fresh), "gate: cached response differs from a fresh one beyond wall_micros")
	return nil
}

// equalsOracle compares an exact answer with the brute-force top-k:
// distances must agree to rounding, and windows must agree wherever the
// distance is not tied with a neighbour's.
func equalsOracle(got []onex.Match, want []bruteforce.Result, d *ts.Dataset) bool {
	if len(got) != len(want) {
		return false
	}
	const eps = 1e-9
	tied := func(i, j int) bool {
		return j >= 0 && j < len(want) && math.Abs(want[i].Score-want[j].Score) <= eps
	}
	for i, w := range want {
		g := got[i]
		if math.Abs(g.Dist-w.Score) > eps {
			return false
		}
		same := g.Series == d.At(w.Ref.Series).Name && g.Start == w.Ref.Start && g.Length == w.Ref.Length
		if !same && !tied(i, i-1) && !tied(i, i+1) {
			return false
		}
	}
	return true
}

package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/ts"
	"repro/onex"
)

// workload is one set of inputs plus the operation counts of its phase
// script. Every count is fixed here (noise rule a): a run never measures
// "for N seconds", it performs exactly these operations on inputs derived
// from the seed.
type workload struct {
	name string
	why  string

	// Dataset shape and index configuration.
	kind           string // "walks" or "cbf"
	series, points int
	minLen, maxLen int
	st             float64 // 0 = the paper's automatic recommendation, paid for in setup

	// Serving configuration.
	cacheBytes int64
	poolSize   int // repeat-query pool
	poolK      int

	// Phase sizes. Latency phases run rounds+1 passes over their query set
	// (the first is a discarded warm-up).
	rounds        int
	repeatRounds  int // the repeat phase's own count: cache hits are short and jittery
	setupReps     int
	approxQueries int
	exactQueries  int
	parQueries    int // prefixes of the exact set: these two phases report
	streamQueries int // a median only and need fewer samples
	ingestAlone   int // timed POST .../series with no readers
	ingestMixed   int // ingested back-to-back while queries run
	ingestTail    int // ingested after compaction: the follower's WAL tail
	recoverReps   int
	warmOpenReps  int
	replicaReps   int
}

// workloads is the fixed list BENCHMARK.json names. Sizes were chosen so
// that one run fits the driver's per-run budget on a 2-core machine; see
// README.md ("Sizes") for what was scaled down from the issue and why.
var workloads = []workload{
	{
		name: "explore-compact",
		why:  "smooth bounded walks: grouping compacts ~50x, so the LB cascade over representatives carries queries",
		kind: "walks", series: 100, points: 256, minLen: 16, maxLen: 32, st: 0.035,
		cacheBytes: 64 << 20, poolSize: 16, poolK: 5,
		rounds: 5, repeatRounds: 100, setupReps: 3, approxQueries: 96, exactQueries: 64, parQueries: 24, streamQueries: 32,
		ingestAlone: 10, ingestMixed: 24, ingestTail: 8,
		recoverReps: 5, warmOpenReps: 15, replicaReps: 5,
	},
	{
		name: "explore-sparse",
		why:  "noise-dominated cylinder-bell-funnel: every group is a singleton, so the DTW kernel does the query work",
		kind: "cbf", series: 12, points: 128, minLen: 24, maxLen: 32,
		cacheBytes: 64 << 20, poolSize: 16, poolK: 5,
		rounds: 5, repeatRounds: 100, setupReps: 5, approxQueries: 20, exactQueries: 20, parQueries: 10, streamQueries: 10,
		ingestAlone: 6, ingestMixed: 12, ingestTail: 6,
		recoverReps: 5, warmOpenReps: 15, replicaReps: 5,
	},
	{
		name: "ingest-wide",
		why:  "100k+ points as many series with a pinned ST: ingest, WAL replay and replica apply dominate, cache is too small",
		kind: "walks", series: 400, points: 256, minLen: 28, maxLen: 32, st: 0.035,
		cacheBytes: 256 << 10, poolSize: 128, poolK: 20,
		rounds: 5, repeatRounds: 5, setupReps: 1, approxQueries: 96, exactQueries: 48, parQueries: 16, streamQueries: 16,
		ingestAlone: 30, ingestMixed: 32, ingestTail: 18,
		recoverReps: 5, warmOpenReps: 15, replicaReps: 5,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks or grows the repetition counts by f, keeping the minimums
// the noise rules demand at f >= 1. The dataset never scales.
func (w workload) scaled(f float64) workload {
	n := func(v, floor int) int { return max(floor, int(math.Round(float64(v)*f))) }
	w.approxQueries = n(w.approxQueries, 4)
	w.exactQueries = n(w.exactQueries, 4)
	w.parQueries = min(n(w.parQueries, 4), w.exactQueries)
	w.streamQueries = min(n(w.streamQueries, 4), w.exactQueries)
	w.ingestAlone = n(w.ingestAlone, 2)
	w.ingestMixed = n(w.ingestMixed, 2)
	w.ingestTail = n(w.ingestTail, 2)
	w.recoverReps = n(w.recoverReps, 1)
	w.warmOpenReps = n(w.warmOpenReps, 1)
	w.replicaReps = n(w.replicaReps, 1)
	w.setupReps = n(w.setupReps, 1)
	w.poolSize = n(w.poolSize, 4)
	return w
}

// inputs is everything a run feeds the system.
type inputs struct {
	dataset *ts.Dataset
	// approx, exact: fresh ad-hoc top-K queries — windows of the dataset
	// plus the seed's noise. Separate draws, so the two phases never share
	// cache keys.
	approx, exact []onex.Query
	// pool is the repeat-query set.
	pool []onex.Query
	// gate are the 20 length-constrained queries of the correctness gate.
	gate []onex.Query
	// ingest holds the series appended during the run, in order.
	ingest []*ts.Series
}

// freshK is the K of the fresh ad-hoc queries: top-5.
const freshK = 5

// valueLo..valueHi is the closed interval every generated value lies in. Both
// generators reach both ends on any realistic size, which pins min-max
// normalization to one affine map.
const valueLo, valueHi = 0.0, 100.0

// seedNoise is the standard deviation of the Gaussian noise a seed adds to
// every query value and every ingested value, as a share of the value
// range: a tenth of a walk's step. A query is then a brushed window of a
// loaded series, the paper's primary flow, sent as ad-hoc values. Larger
// noise (1%) made the noise realisation, not the data, decide a query's
// distance to its nearest neighbours, and with it the pruning bound: the
// DTW count of an exact query moved ±13% between seeds.
const seedNoise = 0.001

// makeInputs builds a workload's inputs in two layers.
//
// The corpus — the indexed series, the series that will be ingested, and
// which windows the queries brush — is drawn from a generator seeded by the
// workload's name: it is the same for every seed. The seed then perturbs
// it: every query value and every ingested value gets seed-drawn Gaussian
// noise, so no two seeds send the same bytes and the same seed always sends
// the same ones.
//
// The seed perturbs rather than redraws because the driver compares runs
// made with different seeds and rejects the benchmark when a metric's
// quartiles are further apart than its bound. Redrawing moved
// query_exact_p50_ms ±10% between seeds on its own (the cost of an exact
// query ranges 3x over the dataset, and a run can afford 24 of them), on
// top of this machine's ±5% run-to-run noise; perturbing moves the DTW
// count of every query set under 1%.
// A comparison between two commits wants the same work on both sides; the
// three workloads, not the seed, are what vary the input properties.
func makeInputs(w workload, seed int64) inputs {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	corpus := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
	noise := rand.New(rand.NewSource(seed))
	perturb := func(vals []float64, share float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			v += noise.NormFloat64() * share * (valueHi - valueLo)
			out[i] = math.Min(valueHi, math.Max(valueLo, v))
		}
		return out
	}

	in := inputs{dataset: ts.NewDataset(w.name)}
	nIngest := w.ingestAlone + w.ingestMixed + w.ingestTail
	series := func(i int, name string, ladder bool) *ts.Series {
		if w.kind == "cbf" {
			return ts.NewSeries(name, cbfSeries(corpus, w.points, i%3))
		}
		// Indexed walks start on an evenly spaced ladder of levels (jittered
		// within each rung): how much the series overlap in level decides
		// the group count, and the ladder spreads them over the whole range.
		level := corpus.Float64()
		if ladder {
			level = (float64(i) + level) / float64(w.series)
		}
		return ts.NewSeries(name, reflectedWalk(corpus, w.points, valueLo+level*(valueHi-valueLo)))
	}
	for i := 0; i < w.series; i++ {
		in.dataset.MustAdd(series(i, fmt.Sprintf("s-%04d", i), true))
	}
	bases := make([]*ts.Series, nIngest)
	for i := range bases {
		bases[i] = series(i, fmt.Sprintf("live-%04d", i), false)
	}

	// Queries have one length, the middle of the indexed range; candidates
	// of every indexed length are still scanned. A mix of lengths makes a
	// set's median a coin-flip between length classes.
	l := (w.minLen + w.maxLen) / 2
	windows := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			s := in.dataset.Series[corpus.Intn(w.series)]
			start := corpus.Intn(s.Len() - l + 1)
			out[i] = s.Values[start : start+l]
		}
		return out
	}
	sets := [][][]float64{windows(w.approxQueries), windows(w.exactQueries), windows(w.poolSize), windows(20)}

	queries := func(ws [][]float64, k int, lens onex.Lengths) []onex.Query {
		qs := make([]onex.Query, len(ws))
		for i, win := range ws {
			qs[i] = onex.Query{Values: perturb(win, seedNoise), K: k, Lengths: lens}
		}
		return qs
	}
	in.approx = queries(sets[0], freshK, onex.Lengths{})
	in.exact = queries(sets[1], freshK, onex.Lengths{})
	in.pool = queries(sets[2], w.poolK, onex.Lengths{})
	// One candidate length per gate query keeps the brute-force oracle
	// affordable; the engine gets the same constraint.
	in.gate = queries(sets[3], freshK, onex.Lengths{Min: l, Max: l})
	for _, b := range bases {
		in.ingest = append(in.ingest, ts.NewSeries(b.Name, perturb(b.Values, seedNoise)))
	}
	return in
}

// reflectedWalk is a Gaussian random walk from v, reflected at the ends of
// the value range. Its stationary distribution is uniform, so a dataset of
// many such series covers the whole range, and the step size relative to
// the range — which decides how well grouping compacts — is fixed.
func reflectedWalk(rng *rand.Rand, n int, v float64) []float64 {
	const step = (valueHi - valueLo) / 90
	out := make([]float64, n)
	for i := range out {
		v += rng.NormFloat64() * step
		for v < valueLo || v > valueHi {
			if v < valueLo {
				v = 2*valueLo - v
			} else {
				v = 2*valueHi - v
			}
		}
		out[i] = v
	}
	return out
}

// cbfSeries is one cylinder (0), bell (1) or funnel (2) series (Saito
// 1994) scaled into the value range: unit Gaussian noise everywhere plus an
// event of amplitude 5..7 noise units. Noise is clamped at ±2.5 units and
// the sum at 7.5, so the dataset's extremes are pinned by the clamps rather
// than by the luckiest sample.
func cbfSeries(rng *rand.Rand, n, class int) []float64 {
	const unit = (valueHi - valueLo) / 10 // range = [-2.5, 7.5] noise units
	a := 1 + int(float64(n)*0.15) + rng.Intn(n/8)
	b := min(a+n/4+rng.Intn(n/4), n-1)
	amp := 5 + 2*rng.Float64()
	out := make([]float64, n)
	for i := range out {
		v := math.Min(2.5, math.Max(-2.5, rng.NormFloat64()))
		if i >= a && i <= b {
			switch class {
			case 0:
				v += amp
			case 1:
				v += amp * float64(i-a) / float64(b-a)
			default:
				v += amp * float64(b-i) / float64(b-a)
			}
		}
		out[i] = valueLo + (math.Min(v, 7.5)+2.5)*unit
	}
	return out
}

package onex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ts"
)

// Window addresses the window [Start, Start+Length) of a named series as
// the query input — the demo's "brush a region of a loaded series" flow.
type Window struct {
	Series string `json:"series"`
	Start  int    `json:"start"`
	Length int    `json:"length"`
}

func (w Window) isZero() bool { return w == Window{} }

// Exclude narrows which candidates a query may return.
type Exclude struct {
	// Self excludes candidates overlapping the query Window, so a window
	// query is never answered with itself. Requires a Window query.
	Self bool `json:"self,omitempty"`
	// Series excludes whole series by name ("which other state looks like
	// MA?" excludes MA itself).
	Series []string `json:"series,omitempty"`
}

// Lengths bounds the candidate subsequence lengths of a query. Zero values
// mean the full indexed range.
type Lengths struct {
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
}

// QueryMode selects the search guarantee for one query.
type QueryMode string

// Query modes. The zero value inherits the DB's configuration
// (Config.Exact).
const (
	// ModeDefault uses the mode the DB was opened with.
	ModeDefault QueryMode = ""
	// ModeApprox is the paper's search: explore only the most promising
	// groups. Fastest, empirically near-exact.
	ModeApprox QueryMode = "approx"
	// ModeExact prunes with certified bounds and returns the provably best
	// matches.
	ModeExact QueryMode = "exact"
)

// Norm selects how matches of different lengths are ranked against each
// other for one query.
type Norm string

// Ranking normalizations.
const (
	// NormDefault uses the DB's ranking (length-normalized).
	NormDefault Norm = ""
	// NormLength ranks by DTW / max(query length, match length): fair
	// comparison across lengths, directly comparable with Config.ST.
	NormLength Norm = "length"
	// NormRaw ranks by raw DTW cost.
	NormRaw Norm = "raw"
)

// Query is the single composable request type behind every similarity
// scenario: best match, top-K, range ("everything within MaxDist"),
// constrained variants of each, and any combination — executed by DB.Find.
// The zero value of every field selects a sensible default, so the
// simplest query is Query{Values: q}.
type Query struct {
	// Values is an ad-hoc query in original units. Mutually exclusive with
	// Window; exactly one of the two must be set.
	Values []float64 `json:"values,omitempty"`
	// Window selects a window of a loaded series as the query.
	Window Window `json:"window,omitzero"`
	// K requests the top-K matches (default 1). In range mode (MaxDist >
	// 0) it caps the result count instead (0 = unlimited): the search
	// keeps the K best within MaxDist and prunes against the K-th best
	// once it holds K, so a capped range query costs about what top-K does.
	K int `json:"k,omitempty"`
	// MaxDist, when positive, switches to range semantics: return every
	// candidate whose distance is at most MaxDist (same units as
	// Match.Dist), best first.
	MaxDist float64 `json:"max_dist,omitempty"`
	// Exclude removes candidates: the query's own window and/or whole
	// series.
	Exclude Exclude `json:"exclude,omitzero"`
	// Lengths bounds candidate lengths; zero means the full indexed range.
	Lengths Lengths `json:"lengths,omitzero"`
	// Mode overrides the DB's search mode for this query. Range queries
	// (MaxDist > 0) always run the exact walk with MaxDist as its ceiling
	// regardless — the result set is provably complete within MaxDist —
	// and echo ModeExact in the resolved query.
	Mode QueryMode `json:"mode,omitempty"`
	// Band overrides the DB's Sakoe-Chiba width for this query (0 =
	// inherit, negative = unconstrained).
	Band int `json:"band,omitempty"`
	// LengthNorm overrides how variable-length matches are ranked.
	LengthNorm Norm `json:"length_norm,omitempty"`
	// Deprecated: ignored. Every query runs on its caller's goroutine; the
	// field is neither validated nor echoed.
	Workers int `json:"workers,omitempty"`
}

// QueryStats reports the work one Find call did — the measurable side of
// the paper's "early pruning of unpromising candidates".
type QueryStats struct {
	// Groups is the number of candidate groups considered.
	Groups int `json:"groups"`
	// GroupsPruned counts groups dropped without a member scan: by lower
	// bounds, an abandoned representative DTW, (exact and range) the
	// representative's certified envelope bound, or (range) a search that
	// stopped before reaching them. Disjoint from GroupsRefined; the two
	// sum to Groups. Range queries run no representative DTW.
	GroupsPruned int `json:"groups_pruned"`
	// GroupsRefined counts groups whose members were scanned.
	GroupsRefined int `json:"groups_refined"`
	// Candidates is the total membership of the refined groups.
	Candidates int `json:"candidates"`
	// DTWs is the number of DTW dynamic programs started (representatives
	// plus members; the rest were pruned by LB_Kim / LB_Keogh).
	DTWs int `json:"dtws"`
	// WallMicros is the end-to-end Find latency in microseconds.
	WallMicros int64 `json:"wall_micros"`
}

// Result is one Find call's outcome. Matches serialize with Go field
// casing (Series, Dist, ...), while the envelope fields use lowercase JSON
// names.
type Result struct {
	// Matches is the result set, best first.
	Matches []Match `json:"matches"`
	// Query echoes the request with every default resolved (K, Lengths,
	// Mode, Band, LengthNorm), so callers see exactly what was executed.
	Query Query `json:"query"`
	// Stats reports the search work and wall time.
	Stats QueryStats `json:"stats"`
}

// ErrNoMatch is returned by Find when no indexed candidate satisfies the
// query constraints.
var ErrNoMatch = core.ErrNoMatch

// Find executes a Query: the unified, context-aware entry point behind
// every similarity scenario. Cancelling ctx aborts the search between
// pruning rounds and returns ctx.Err(), so long exact-mode scans stop
// promptly.
//
// Semantics by field combination:
//   - K alone: top-K most similar candidates (K = 0 means 1).
//   - MaxDist > 0: every candidate within MaxDist, best first, capped at K
//     (K = 0 means unlimited).
//   - Exclude / Lengths constrain either flavour.
//   - Mode / Band / LengthNorm override the Open-time configuration for
//     this call only.
//
// Find is safe to call concurrently with other queries and with AddSeries.
func (db *DB) Find(ctx context.Context, q Query) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.checkValuesLocked(); err != nil {
		return Result{}, err
	}

	rq, err := db.resolveQuery(q)
	if err != nil {
		return Result{}, err
	}
	res, err := db.engine.Find(ctx, rq.qvec, rq.fo)
	if err != nil {
		return Result{}, err
	}
	return db.publicResult(rq.eff, res.Matches, res.Stats, start), nil
}

// resolvedQuery is a Query resolved against the DB's configuration: the
// fully-defaulted echo, the query vector in engine units, and the core
// call options. Produced by resolveQuery, consumed by Find and Stream.
type resolvedQuery struct {
	eff  Query
	qvec []float64
	fo   core.FindOptions
}

// resolveQuery validates q, resolves every default against the Open-time
// configuration, and maps the public request onto core types. Callers
// hold db.mu.
func (db *DB) resolveQuery(q Query) (resolvedQuery, error) {
	eff := q
	rangeMode := q.MaxDist > 0

	// Per-query mode, band, and ranking normalization default to the
	// configuration the DB was opened with.
	mode := core.ModeApprox
	if db.cfg.Exact {
		mode = core.ModeExact
	}
	switch q.Mode {
	case ModeDefault:
	case ModeApprox:
		mode = core.ModeApprox
	case ModeExact:
		mode = core.ModeExact
	default:
		return resolvedQuery{}, fmt.Errorf("onex: Find: unknown mode %q (want %q or %q)", q.Mode, ModeApprox, ModeExact)
	}
	if mode == core.ModeExact || rangeMode {
		// Range queries run the exact walk whatever mode was requested;
		// echo what actually runs.
		eff.Mode = ModeExact
	} else {
		eff.Mode = ModeApprox
	}

	band := q.Band
	if band == 0 {
		band = db.cfg.Band
	}
	eff.Band = band

	eff.Workers = 0 // deprecated and ignored: never echoed

	lengthNorm := true
	switch q.LengthNorm {
	case NormDefault, NormLength:
		eff.LengthNorm = NormLength
	case NormRaw:
		lengthNorm = false
	default:
		return resolvedQuery{}, fmt.Errorf("onex: Find: unknown length norm %q (want %q or %q)", q.LengthNorm, NormLength, NormRaw)
	}

	// Resolve the query vector into the engine's normalized space.
	var (
		qvec       []float64
		self       ts.SubSeq
		haveWindow = !q.Window.isZero()
	)
	switch {
	case len(q.Values) > 0 && haveWindow:
		return resolvedQuery{}, errors.New("onex: Find: provide Values or Window, not both")
	case len(q.Values) > 0:
		for i, v := range q.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return resolvedQuery{}, fmt.Errorf("onex: Find: Values[%d] is %g: query values must be finite", i, v)
			}
		}
		qvec = db.normalizeQuery(q.Values)
	case haveWindow:
		si := db.normed.IndexOf(q.Window.Series)
		if si < 0 {
			return resolvedQuery{}, fmt.Errorf("onex: unknown series %q", q.Window.Series)
		}
		self = ts.SubSeq{Series: si, Start: q.Window.Start, Length: q.Window.Length}
		if err := self.Validate(db.normed); err != nil {
			return resolvedQuery{}, fmt.Errorf("onex: Find: %w", err)
		}
		qvec = self.Values(db.normed)
	default:
		return resolvedQuery{}, errors.New("onex: Find: empty query: provide Values or a Window")
	}

	cons := core.QueryConstraints{MinLength: q.Lengths.Min, MaxLength: q.Lengths.Max}
	if q.Exclude.Self {
		if !haveWindow {
			return resolvedQuery{}, errors.New("onex: Find: Exclude.Self requires a Window query")
		}
		cons.ExcludeOverlap = self
	}
	if len(q.Exclude.Series) > 0 {
		cons.ExcludeSeries = make(map[int]bool, len(q.Exclude.Series))
		for _, name := range q.Exclude.Series {
			si := db.normed.IndexOf(name)
			if si < 0 {
				return resolvedQuery{}, fmt.Errorf("onex: Find: unknown series %q in Exclude.Series", name)
			}
			cons.ExcludeSeries[si] = true
		}
	}

	k := q.K
	if !rangeMode && k < 1 {
		k = 1
	}
	eff.K = k
	if eff.Lengths.Min <= 0 {
		eff.Lengths.Min = db.base.MinLength
	}
	if eff.Lengths.Max <= 0 {
		eff.Lengths.Max = db.base.MaxLength
	}

	return resolvedQuery{
		eff:  eff,
		qvec: qvec,
		fo: core.FindOptions{
			Options:     core.Options{Band: band, Mode: mode, LengthNorm: lengthNorm},
			K:           k,
			Range:       rangeMode,
			MaxDist:     q.MaxDist,
			Constraints: cons,
		},
	}, nil
}

// publicResult converts one core answer (matches plus statistics) to the
// public Result shape. Callers hold db.mu.
func (db *DB) publicResult(eff Query, ms []core.Match, st core.SearchStats, start time.Time) Result {
	out := Result{Query: eff, Matches: make([]Match, len(ms))}
	for i, m := range ms {
		out.Matches[i] = db.publicMatch(m)
	}
	out.Stats = QueryStats{
		Groups:        st.Groups,
		GroupsPruned:  st.GroupsLBPruned,
		GroupsRefined: st.GroupsRefined,
		Candidates:    st.Members,
		DTWs:          st.DTWs(),
		WallMicros:    time.Since(start).Microseconds(),
	}
	return out
}

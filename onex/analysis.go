package onex

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ts"
)

// AnalysisKind selects which exploration an Analysis runs.
type AnalysisKind string

// Analysis kinds. Each kind fills exactly one payload field of
// AnalysisResult.
const (
	// AnalysisOverview returns the top-K similarity groups of one length
	// (Length 0 auto-selects the most populated length) — the demo's
	// landing pane.
	AnalysisOverview AnalysisKind = "overview"
	// AnalysisGroupMembers drills into one group (addressed by Length +
	// Index, as reported by an overview), members nearest the
	// representative first.
	AnalysisGroupMembers AnalysisKind = "group-members"
	// AnalysisLengthSummaries returns the base's per-length shape (group
	// and subsequence counts), ascending by length.
	AnalysisLengthSummaries AnalysisKind = "length-summaries"
	// AnalysisSeasonal mines repeating patterns within Series (paper §3.3,
	// Fig 4), bounded by Lengths and MinOccurrences, capped at K.
	AnalysisSeasonal AnalysisKind = "seasonal"
	// AnalysisCommonPatterns mines shapes shared by at least MinSeries
	// different series, bounded by Lengths, capped at K.
	AnalysisCommonPatterns AnalysisKind = "common-patterns"
	// AnalysisSimilaritySweep counts matches of a query (Values or Window)
	// at several Thresholds in one certified range pass.
	AnalysisSimilaritySweep AnalysisKind = "similarity-sweep"
	// AnalysisThresholds returns the data-driven ST recommendations plus
	// the pairwise-distance sample they were derived from.
	AnalysisThresholds AnalysisKind = "threshold-recommend"
)

// Analysis is the single composable request type behind every exploration
// scenario — overview, drill-down, per-length stats, seasonal and common
// patterns, threshold sweeps and recommendations — executed by DB.Analyze.
// It is the analytics counterpart of Query: the zero value of every knob
// selects a documented default, only the fields relevant to Kind are
// consulted and validated (Mode and Band are shared knobs, resolved and
// echoed for every kind), and the executed request (defaults resolved) is
// echoed in AnalysisResult.Request.
type Analysis struct {
	// Kind selects the exploration; required.
	Kind AnalysisKind `json:"kind"`
	// Series names the series to mine (seasonal; required there).
	Series string `json:"series,omitempty"`
	// Window selects a window of a loaded series as the sweep query.
	// Mutually exclusive with Values.
	Window Window `json:"window,omitzero"`
	// Values is an ad-hoc sweep query in original units.
	Values []float64 `json:"values,omitempty"`
	// Length selects the group length (overview: 0 auto-selects;
	// group-members: required).
	Length int `json:"length,omitempty"`
	// Index addresses a group within its length (group-members).
	Index int `json:"index,omitempty"`
	// K caps the result list: top-K groups (overview, 0 = all) or maximum
	// patterns (seasonal / common-patterns, 0 = 16).
	K int `json:"k,omitempty"`
	// Lengths bounds the candidate subsequence lengths (seasonal,
	// common-patterns, similarity-sweep); zero means the indexed range.
	Lengths Lengths `json:"lengths,omitzero"`
	// MinOccurrences is the smallest recurrence count a seasonal pattern
	// must reach (0 = 2).
	MinOccurrences int `json:"min_occurrences,omitempty"`
	// MinSeries is the smallest number of distinct series a common pattern
	// must span (0 = 2).
	MinSeries int `json:"min_series,omitempty"`
	// Thresholds are the sweep's distance cut points (similarity-sweep;
	// required there), in the same normalized per-point units as Config.ST.
	Thresholds []float64 `json:"thresholds,omitempty"`
	// Mode overrides the DB's search mode for this call. Sweeps always run
	// one range query on the exact walk and echo ModeExact, mirroring range
	// queries.
	Mode QueryMode `json:"mode,omitempty"`
	// Band overrides the DB's Sakoe-Chiba width for this call (0 =
	// inherit, negative = unconstrained). Only sweeps run DTW.
	Band int `json:"band,omitempty"`
}

// AnalysisStats reports the work one Analyze call did, the analytics
// counterpart of QueryStats.
type AnalysisStats struct {
	// Groups is the number of similarity groups visited.
	Groups int `json:"groups"`
	// Candidates is the total membership of the visited groups (for
	// threshold-recommend: the number of sampled distances).
	Candidates int `json:"candidates"`
	// DTWs is the number of DTW dynamic programs started (only sweeps run
	// DTW; the mining kinds read the base without distance computation).
	DTWs int `json:"dtws"`
	// WallMicros is the end-to-end Analyze latency in microseconds.
	WallMicros int64 `json:"wall_micros"`
}

// ThresholdReport is the threshold-recommend payload: the recommendations
// plus the distribution they were derived from, everything a front end
// needs to draw the threshold histogram with its cut points.
type ThresholdReport struct {
	// Recommendations are the data-driven ST suggestions.
	Recommendations []Recommendation `json:"recommendations"`
	// Sample is the pairwise subsequence-ED sample (normalized per point,
	// sorted ascending) behind the recommendations.
	Sample []float64 `json:"sample"`
	// ProbeLength is the subsequence length the sample was measured at.
	ProbeLength int `json:"probe_length"`
}

// AnalysisResult is one Analyze call's outcome. Exactly one payload field
// is populated, selected by the request's Kind. Payload elements serialize
// with Go field casing while the envelope fields use lowercase JSON names,
// mirroring Result.
type AnalysisResult struct {
	// Groups is the overview payload.
	Groups []GroupInfo `json:"groups,omitempty"`
	// Members is the group-members payload.
	Members []Member `json:"members,omitempty"`
	// LengthSummaries is the length-summaries payload.
	LengthSummaries []LengthSummary `json:"lengths,omitempty"`
	// Patterns is the seasonal payload.
	Patterns []Pattern `json:"patterns,omitempty"`
	// Common is the common-patterns payload.
	Common []CommonShape `json:"common,omitempty"`
	// Sweep is the similarity-sweep payload.
	Sweep []SweepPoint `json:"sweep,omitempty"`
	// Thresholds is the threshold-recommend payload.
	Thresholds *ThresholdReport `json:"thresholds,omitempty"`
	// Request echoes the analysis with every default resolved (Length, K,
	// Lengths, MinOccurrences, MinSeries, Mode, Band), so callers
	// see exactly what was executed.
	Request Analysis `json:"request"`
	// Stats reports the walk's work and wall time.
	Stats AnalysisStats `json:"stats"`
}

// Analyze executes an Analysis: the unified, context-aware entry point
// behind every exploration scenario, the analytics counterpart of Find.
// Cancelling ctx aborts the walk between pruning rounds — checked per
// group and every 64 members, like Find — and returns ctx.Err().
//
// Invalid or contradictory requests are rejected with a *AnalysisError.
// Analyze is safe to call concurrently with queries and with AddSeries.
func (db *DB) Analyze(ctx context.Context, a Analysis) (AnalysisResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.checkValuesLocked(); err != nil {
		return AnalysisResult{}, err
	}

	eff := a

	// Per-call mode and band default to the configuration the DB was
	// opened with, exactly as in Find.
	mode := core.ModeApprox
	if db.cfg.Exact {
		mode = core.ModeExact
	}
	switch a.Mode {
	case ModeDefault:
	case ModeApprox:
		mode = core.ModeApprox
	case ModeExact:
		mode = core.ModeExact
	default:
		return AnalysisResult{}, &AnalysisError{Kind: a.Kind, Field: "Mode", Value: a.Mode,
			Reason: fmt.Sprintf("want %q or %q (or empty for the DB default)", ModeApprox, ModeExact)}
	}
	if mode == core.ModeExact {
		eff.Mode = ModeExact
	} else {
		eff.Mode = ModeApprox
	}
	band := a.Band
	if band == 0 {
		band = db.cfg.Band
	}
	eff.Band = band

	// Lengths is consulted by the mining and sweep kinds only; validate it
	// there and leave it untouched (zero) in the other kinds' echoes.
	validLengths := func() *AnalysisError {
		if a.Lengths.Min < 0 || a.Lengths.Max < 0 || (a.Lengths.Max > 0 && a.Lengths.Min > a.Lengths.Max) {
			return &AnalysisError{Kind: a.Kind, Field: "Lengths", Value: a.Lengths,
				Reason: "bounds must be non-negative with Min <= Max (zero = indexed range)"}
		}
		return nil
	}

	var (
		st  core.SearchStats
		res AnalysisResult
	)
	switch a.Kind {
	case AnalysisOverview:
		if a.Length < 0 {
			return AnalysisResult{}, &AnalysisError{Kind: a.Kind, Field: "Length", Value: a.Length,
				Reason: "must be non-negative (0 auto-selects the most populated length)"}
		}
		sums, err := db.engine.OverviewContext(ctx, a.Length, a.K, &st)
		if err != nil {
			return AnalysisResult{}, err
		}
		res.Groups = make([]GroupInfo, len(sums))
		for i, s := range sums {
			rep, _ := ts.DenormalizeValues(db.normed, 0, s.Rep)
			res.Groups[i] = GroupInfo{Length: s.Group.Length, Index: s.Group.Index, Count: s.Count, Rep: rep}
		}
		if eff.Length == 0 && len(sums) > 0 {
			eff.Length = sums[0].Group.Length
		}

	case AnalysisGroupMembers:
		if a.Length <= 0 {
			return AnalysisResult{}, &AnalysisError{Kind: a.Kind, Field: "Length", Value: a.Length,
				Reason: "group length is required (as reported by an overview)"}
		}
		if a.Index < 0 {
			return AnalysisResult{}, &AnalysisError{Kind: a.Kind, Field: "Index", Value: a.Index,
				Reason: "group index must be non-negative"}
		}
		ms, err := db.engine.GroupMembersContext(ctx, core.GroupRef{Length: a.Length, Index: a.Index}, &st)
		if err != nil {
			return AnalysisResult{}, err
		}
		res.Members = make([]Member, len(ms))
		for i, m := range ms {
			vals, _ := ts.DenormalizeValues(db.normed, m.Ref.Series, m.Values)
			res.Members[i] = Member{
				Series: m.SeriesName,
				Start:  m.Ref.Start,
				Length: m.Ref.Length,
				RepED:  m.RepED,
				Values: vals,
			}
		}

	case AnalysisLengthSummaries:
		sums, err := db.engine.LengthSummariesContext(ctx, &st)
		if err != nil {
			return AnalysisResult{}, err
		}
		res.LengthSummaries = sums

	case AnalysisSeasonal:
		if a.Series == "" {
			return AnalysisResult{}, &AnalysisError{Kind: a.Kind, Field: "Series", Value: a.Series,
				Reason: "seasonal mining needs a series name"}
		}
		if err := validLengths(); err != nil {
			return AnalysisResult{}, err
		}
		eff.MinOccurrences = max(a.MinOccurrences, 2)
		if eff.K <= 0 {
			eff.K = 16
		}
		db.resolveLengths(&eff.Lengths)
		pats, err := db.engine.SeasonalContext(ctx, a.Series, core.SeasonalOptions{
			MinLength:      eff.Lengths.Min,
			MaxLength:      eff.Lengths.Max,
			MinOccurrences: eff.MinOccurrences,
			MaxPatterns:    eff.K,
			Dedup:          true, // suppress sub-window duplicates across lengths
		}, &st)
		if err != nil {
			return AnalysisResult{}, err
		}
		res.Patterns = make([]Pattern, len(pats))
		for i, p := range pats {
			starts := make([]int, len(p.Occurrences))
			for j, o := range p.Occurrences {
				starts[j] = o.Start
			}
			res.Patterns[i] = Pattern{
				Series:      a.Series,
				Length:      p.Length,
				Starts:      starts,
				MeanGap:     p.MeanGap,
				Occurrences: len(p.Occurrences),
			}
		}

	case AnalysisCommonPatterns:
		if err := validLengths(); err != nil {
			return AnalysisResult{}, err
		}
		eff.MinSeries = max(a.MinSeries, 2)
		if eff.K <= 0 {
			eff.K = 16
		}
		db.resolveLengths(&eff.Lengths)
		pats, err := db.engine.CommonPatternsContext(ctx, core.CommonOptions{
			MinSeries:   eff.MinSeries,
			MinLength:   eff.Lengths.Min,
			MaxLength:   eff.Lengths.Max,
			MaxPatterns: eff.K,
		}, &st)
		if err != nil {
			return AnalysisResult{}, err
		}
		res.Common = make([]CommonShape, len(pats))
		for i, p := range pats {
			names := make([]string, len(p.Occurrences))
			for j, o := range p.Occurrences {
				names[j] = db.raw.At(o.Series).Name
			}
			rep, _ := ts.DenormalizeValues(db.normed, 0, p.Rep)
			res.Common[i] = CommonShape{
				Length:       p.Length,
				Series:       names,
				Rep:          rep,
				TotalMembers: p.TotalMembers,
			}
		}

	case AnalysisSimilaritySweep:
		if err := validLengths(); err != nil {
			return AnalysisResult{}, err
		}
		if len(a.Thresholds) == 0 {
			return AnalysisResult{}, &AnalysisError{Kind: a.Kind, Field: "Thresholds", Value: a.Thresholds,
				Reason: "a sweep needs at least one threshold"}
		}
		for _, th := range a.Thresholds {
			if th < 0 || th != th {
				return AnalysisResult{}, &AnalysisError{Kind: a.Kind, Field: "Thresholds", Value: th,
					Reason: "thresholds must be non-negative"}
			}
		}
		qvec, err := db.analysisQuery(a)
		if err != nil {
			return AnalysisResult{}, err
		}
		db.resolveLengths(&eff.Lengths)
		eff.Mode = ModeExact // sweeps run one range query on the exact walk
		pts, err := db.engine.SimilaritySweepContext(ctx, qvec, a.Thresholds,
			core.QueryConstraints{MinLength: eff.Lengths.Min, MaxLength: eff.Lengths.Max},
			core.Options{Band: band, Mode: mode, LengthNorm: true}, &st)
		if err != nil {
			return AnalysisResult{}, err
		}
		res.Sweep = pts

	case AnalysisThresholds:
		dists, probe, err := core.SampleDistancesContext(ctx, db.normed, core.ThresholdOptions{})
		if err != nil {
			return AnalysisResult{}, err
		}
		recs, err := core.RecommendFromSampleContext(ctx, db.normed, dists, probe)
		if err != nil {
			return AnalysisResult{}, err
		}
		res.Thresholds = &ThresholdReport{Recommendations: recs, Sample: dists, ProbeLength: probe}
		st.Members = len(dists)

	default:
		return AnalysisResult{}, &AnalysisError{Kind: a.Kind, Field: "Kind", Value: a.Kind,
			Reason: "want overview, group-members, length-summaries, seasonal, common-patterns, similarity-sweep, or threshold-recommend"}
	}

	res.Request = eff
	res.Stats = AnalysisStats{
		Groups:     st.Groups,
		Candidates: st.Members,
		DTWs:       st.DTWs(),
		WallMicros: time.Since(start).Microseconds(),
	}
	return res, nil
}

// analysisQuery resolves a sweep's query vector (Values or Window, exactly
// one) into the engine's normalized space. Callers hold db.mu.
func (db *DB) analysisQuery(a Analysis) ([]float64, error) {
	haveWindow := !a.Window.isZero()
	switch {
	case len(a.Values) > 0 && haveWindow:
		return nil, &AnalysisError{Kind: a.Kind, Field: "Values", Value: a.Values,
			Reason: "provide Values or Window, not both"}
	case len(a.Values) > 0:
		return db.normalizeQuery(a.Values), nil
	case haveWindow:
		si := db.normed.IndexOf(a.Window.Series)
		if si < 0 {
			return nil, fmt.Errorf("onex: unknown series %q", a.Window.Series)
		}
		self := ts.SubSeq{Series: si, Start: a.Window.Start, Length: a.Window.Length}
		if err := self.Validate(db.normed); err != nil {
			return nil, fmt.Errorf("onex: Analyze: %w", err)
		}
		return self.Values(db.normed), nil
	default:
		return nil, &AnalysisError{Kind: a.Kind, Field: "Values", Value: a.Values,
			Reason: "a sweep needs a query: provide Values or a Window"}
	}
}

// resolveLengths fills zero length bounds with the indexed range, so the
// echoed request reports what actually ran. Callers hold db.mu.
func (db *DB) resolveLengths(l *Lengths) {
	if l.Min <= 0 {
		l.Min = db.base.MinLength
	}
	if l.Max <= 0 {
		l.Max = db.base.MaxLength
	}
}

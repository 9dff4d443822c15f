package core

import (
	"context"
	"fmt"
	"sort"
)

// SweepPoint is one step of a threshold sweep: how many indexed
// subsequences fall within MaxDist of the query.
type SweepPoint struct {
	MaxDist float64
	Matches int
}

// SimilaritySweepContext counts the matches of q at several thresholds in
// one pass (paper §2: "showing the changes in the similarity between
// sequences for varying parameters"). The curve lets the analyst pick a
// threshold by seeing where the match population jumps. Thresholds are
// evaluated against the largest value, then counted per step, so the cost
// is one range query, not len(thresholds): the exact walk with the largest
// threshold as its ceiling and no cap. It checks the context once per
// group and every ctxCheckStride members, so a cancelled sweep aborts
// within one pruning round with ctx.Err(). callOpts overrides the engine's
// Band (the walk is always certified regardless of Mode); st, when
// non-nil, accumulates the range query's search statistics.
func (e *Engine) SimilaritySweepContext(ctx context.Context, q []float64, thresholds []float64, c QueryConstraints, callOpts Options, st *SearchStats) ([]SweepPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("core: SimilaritySweep: no thresholds")
	}
	sorted := make([]float64, len(thresholds))
	copy(sorted, thresholds)
	sort.Float64s(sorted)
	maxT := sorted[len(sorted)-1]
	if maxT < 0 {
		return nil, fmt.Errorf("core: SimilaritySweep: negative thresholds")
	}
	ms, err := e.search(ctx, q, FindOptions{Options: callOpts, Range: true, MaxDist: maxT, Constraints: c}, st)
	if err != nil {
		return nil, err
	}
	// ms is sorted by score; count matches under each threshold by walking
	// both sorted sequences once. The comparison is the range query's own,
	// so each count equals a range query's match count at that threshold.
	out := make([]SweepPoint, len(sorted))
	mi := 0
	for ti, th := range sorted {
		for mi < len(ms) && ms[mi].Score <= th {
			mi++
		}
		out[ti] = SweepPoint{MaxDist: th, Matches: mi}
	}
	return out, nil
}

// SearchStats counts the work one similarity query did; exposed so the
// pruning story (paper §3.3 "early pruning of unpromising candidates") is
// measurable on the ONEX side too.
type SearchStats struct {
	// Groups is the number of candidate groups considered.
	Groups int
	// GroupsLBPruned is how many groups were skipped without a member
	// scan, each counted once: every group the walk did not refine, so
	// GroupsLBPruned + GroupsRefined = Groups in every mode. Top-k: past
	// the approximate cutoff, or certified-skipped by its envelope bound
	// (stream.go groupLower) or, on a radius-zero group, its browse key.
	// Range, which has no approximate phase: the groups the envelope bound
	// (radius 0 on a radius-zero group) or LB_Kim put above the ceiling,
	// and those the walk stopped before expanding.
	GroupsLBPruned int
	// RepDTW is the number of representative DTW evaluations started.
	RepDTW int
	// GroupsRefined is how many groups had their members scanned.
	GroupsRefined int
	// Members is the total membership of the refined groups.
	Members int
	// MemberDTW is the number of member DTW evaluations started (the rest
	// were dropped by LB_Kim / LB_Keogh).
	MemberDTW int
}

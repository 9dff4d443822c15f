package core

import (
	"context"
)

// FindOptions is the fully-resolved specification of one Find call. The
// embedded Options (Band, Mode, LengthNorm) override the engine's
// construction-time configuration for this call only; callers resolve
// defaults before invoking Find.
type FindOptions struct {
	Options
	// K requests the top-K matches in best-match mode (values < 1 are
	// treated as 1). In range mode K caps the number of returned matches
	// (values < 1 mean unlimited): the walk keeps the K best within
	// MaxDist and, once it holds K, prunes against the K-th best.
	K int
	// Range switches from top-K to within-threshold semantics: return
	// every candidate whose score is at most MaxDist, best first. It runs
	// the exact walk whatever Mode says, with MaxDist as a fixed ceiling
	// and no approximate phase (search.go kbestRange).
	Range bool
	// MaxDist is the inclusive score threshold for range mode.
	MaxDist float64
	// Constraints narrow the candidate set in either mode.
	Constraints QueryConstraints
	// Progress, when non-nil, turns an exact-mode Find into a progressive
	// search: the sink receives a Snapshot after the approximate phase,
	// after every certified refinement wave, and a final one equal to the
	// returned result (see stream.go). It is called synchronously on the
	// searching goroutine — a slow sink slows the walk. Approx-mode and
	// range calls never invoke it.
	Progress ProgressFunc
}

// FindResult bundles one Find call's matches with the work statistics the
// search accumulated.
type FindResult struct {
	Matches []Match
	Stats   SearchStats
}

// Find is the unified, context-aware similarity entry point: one call
// covers best-match, top-K, and range ("within threshold") queries, with
// per-call Band/Mode/LengthNorm overrides. Cancellation is honoured
// between pruning rounds — once per candidate group and every
// ctxCheckStride members inside a group — so long exact-mode scans abort
// promptly with ctx.Err().
func (e *Engine) Find(ctx context.Context, q []float64, fo FindOptions) (FindResult, error) {
	if !fo.Range {
		fo.K = max(fo.K, 1)
	}
	var st SearchStats
	ms, err := e.search(ctx, q, fo, &st)
	return FindResult{Matches: ms, Stats: st}, err
}

// DTWs returns the total number of DTW dynamic programs started
// (representatives plus members).
func (s SearchStats) DTWs() int { return s.RepDTW + s.MemberDTW }

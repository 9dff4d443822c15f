package core

import (
	"context"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/grouping"
)

// Progressive refinement: the top-k search restructured as a resumable
// pipeline with an event sink. One walk serves both entry points:
//
//   - Find (exact mode) drives the pipeline to completion and returns the
//     final answer — the one-shot spelling.
//   - Find with FindOptions.Progress set emits a Snapshot at every
//     emission boundary, so callers (onex.DB.Stream, the NDJSON endpoint)
//     can show the analyst an answer that refines while the walk runs.
//
// The emission boundaries are the points where the search has a coherent
// intermediate answer:
//
//   1. After the approximate phase — the paper's search (best groups by
//      representative distance, refined best-first until the cutoff).
//      This snapshot's matches equal what Find returns in approx mode.
//   2. After every certified refinement wave — the exact walk bounds every
//      remaining group (groupLower), sorts the survivors by bound, and
//      refines them in fixed 16-group waves (parallel.go exactWave) until
//      the next bound exceeds the k-th best; each wave boundary yields the
//      current top-k plus per-match certification.
//   3. A terminating snapshot (Final = true) whose matches carry warping
//      paths and equal Find's exact-mode result exactly.
//
// The sink is called synchronously on the searching goroutine: a slow
// consumer slows the walk rather than queueing unbounded snapshots — that
// is the backpressure contract, and it keeps cancellation simple (the
// walk polls ctx between waves like everywhere else).

// Snapshot is one emission of the progressive search pipeline.
type Snapshot struct {
	// Seq numbers the emissions of one walk: 0 is the approximate answer,
	// then one snapshot per certified refinement wave, then the final one.
	Seq int
	// Matches is the current top-k, best first. Intermediate snapshots
	// omit warping paths (they cost a full DP matrix each); the final
	// snapshot carries them.
	Matches []Match
	// Certified reports, per match, whether the match provably belongs to
	// the final exact answer with its exact distance: its score is below
	// the certified lower bound of every group the walk has not yet
	// refined. Certification is monotone — once true for a match it stays
	// true — and every flag is true in the final snapshot.
	Certified []bool
	// Stats is the cumulative work since the walk started.
	Stats SearchStats
	// GroupsRemaining is how many candidate groups the walk has neither
	// refined nor certified-skipped yet.
	GroupsRemaining int
	// Wave is the refinement wave this snapshot closes: 0 for the
	// approximate phase, 1..N for the certified waves (the final snapshot
	// repeats N).
	Wave int
	// Final marks the terminating snapshot; its Matches (and Stats) equal
	// the exact-mode Find result.
	Final bool
}

// ProgressFunc receives pipeline snapshots. It is invoked synchronously
// from the search goroutine; blocking in the sink blocks the walk.
type ProgressFunc func(Snapshot)

// progressiveWalk is the resumable state of one top-k search: the scored
// candidate groups, the accumulator, and how far the member-level walk has
// advanced. The approximate phase produces it; the exact continuation
// consumes it.
type progressiveWalk struct {
	e    *Engine
	q    []float64
	k    int
	c    QueryConstraints
	opts Options
	st   *SearchStats

	// cands is sorted by representative score (pruned-last before
	// resolution) until finishExact re-sorts the unrefined tail by certified
	// lower bound. cands[:refined] have had their members fully scanned or
	// been certified-skipped; the walk resumes at cands[refined].
	cands   []repCandidate
	top     *topK
	refined int
	// resolved records that every repDist in cands is an exact distance
	// (no +Inf placeholders), so certLower applies to every candidate.
	resolved bool
	// bounded records that finishExact has set every unrefined candidate's
	// lower bound and sorted the tail by it: the minimum bound over the
	// unrefined tail is then cands[refined].lower.
	bounded bool
	// seq and wave number the snapshots emitted so far.
	seq, wave int
}

// startWalk runs the approximate phase — representative scoring plus the
// best-first member walk with its cutoff — and returns the resumable state.
// The accumulator content equals the approx-mode answer when it returns.
func (e *Engine) startWalk(ctx context.Context, q []float64, k int, c QueryConstraints, lengths []int, opts Options, st *SearchStats) (*progressiveWalk, error) {
	cands, err := e.scoreRepresentatives(ctx, q, k, lengths, opts, st)
	if err != nil {
		return nil, err
	}
	sortCandidates(cands)
	w := &progressiveWalk{e: e, q: q, k: k, c: c, opts: opts, st: st, cands: cands, top: newTopK(k)}

	// Refine within the most promising groups. To fill k results we may
	// need more than k groups when constraints exclude members, so walk
	// groups in rep order until k matches are collected (or candidates are
	// exhausted).
	for i := 0; i < len(cands); i++ {
		if !w.resolved && (i >= k || math.IsInf(cands[i].repDist, 1)) {
			// End of the deterministic prefix: the k best representatives are
			// exactly scored in every run, but beyond them which groups the
			// scoring pass LB-pruned depends on scan order (and, with
			// Workers > 1, on scheduling). Resolve the tail — recompute every
			// pruned representative and re-sort by true score — so the walk
			// continues in true representative order regardless, and a
			// constrained query that under-fills stops at the same cutoff as
			// the main loop instead of degenerating into a near-exhaustive
			// member scan of every pruned group.
			if err := e.resolveCandidates(ctx, q, cands[i:], opts, st); err != nil {
				return nil, err
			}
			sortCandidates(cands[i:])
			w.resolved = true
		}
		cand := cands[i]
		if w.top.full() && cand.repScore > w.top.worst().Score {
			// A group whose representative already scores worse than every
			// collected member cannot improve an approximate top-k
			// (heuristic: members can score below their representative).
			break
		}
		if err := e.refine(ctx, q, cand, c, w.top, opts, st); err != nil {
			return nil, err
		}
		w.refined = i + 1
	}
	return w, nil
}

// certLower is the transfer lower bound for every member s of cand's
// group: DTW(q,s) >= DTW(q,rep) - mu*ED(rep,s) >= repDist - mu*ST_l/2,
// where mu is bounded by the band geometry of the (q,s) grid and ST_l is
// the absolute threshold at the group's length. It needs the exact
// representative distance.
func (w *progressiveWalk) certLower(cand repCandidate) float64 {
	bw := dist.EffectiveBand(len(w.q), cand.g.Length, w.opts.Band)
	mu := float64(2*bw + 1)
	return (cand.repDist - mu*cand.env.half) / cand.env.norm
}

// groupLower is the envelope lower bound, in raw distance, for every member
// m of g: DTWBanded(q, m, band) >= max(0, LBKeogh(rep) - HalfST(l)), where
// env holds Envelope(q, l, band). LB_Keogh is a sum of per-position hinges,
// each 1-Lipschitz in the candidate value, so LBKeogh(m) >=
// LBKeogh(rep) - ED(m, rep) (ED is L1); the §3.1 invariant gives
// ED(m, rep) <= HalfST(l); and LBKeogh(m) <= DTWBanded(q, m, band). It
// costs one LB_Keogh of the representative and no DTW; exclusions only
// remove members, so they keep it valid. The LB_Keogh abandons at ub + HalfST(l): a result above ub (+Inf when
// abandoned) certifies that no member scores within ub.
func groupLower(g *grouping.Group, env *lengthEnv, ub float64) float64 {
	lb := dist.LBKeogh(g.Rep, env.qU, env.qL, ub+env.half)
	if lb <= env.half {
		return 0
	}
	return lb - env.half
}

// snapshot assembles the current emission. Certification needs a sound
// lower bound for every unrefined group: the envelope bounds once
// finishExact has set them, otherwise the transfer bound once every
// representative distance is resolved. An unresolved (+Inf) candidate's
// transfer bound is unknown, and guessing it could certify a match
// unsoundly.
func (w *progressiveWalk) snapshot(final bool) Snapshot {
	var ms []Match
	if final {
		ms = w.e.finishMatches(w.q, w.top.sorted(), w.opts)
	} else {
		ms = w.top.sorted()
	}
	cert := make([]bool, len(ms))
	switch {
	case final:
		for i := range cert {
			cert[i] = true
		}
	case w.bounded || w.resolved:
		// The minimum certified lower bound over the unrefined tail: the
		// head's own bound once the tail is sorted by bound, by a one-off
		// scan for the single pre-wave emission.
		minLower := math.Inf(1)
		if w.bounded {
			if w.refined < len(w.cands) {
				minLower = w.cands[w.refined].lower
			}
		} else {
			for i := w.refined; i < len(w.cands); i++ {
				if l := w.certLower(w.cands[i]); l < minLower {
					minLower = l
				}
			}
		}
		for i, m := range ms {
			cert[i] = m.Score < minLower
		}
	}
	var st SearchStats
	if w.st != nil {
		st = *w.st
	}
	s := Snapshot{
		Seq:             w.seq,
		Matches:         ms,
		Certified:       cert,
		Stats:           st,
		GroupsRemaining: len(w.cands) - w.refined,
		Wave:            w.wave,
		Final:           final,
	}
	w.seq++
	return s
}

// finishExact resumes the walk to a certified-exact answer. It bounds every
// group the approximate phase left unrefined (boundTail), then refines the
// survivors in ascending bound order, in fixed-size waves, and stops at the
// first group whose bound exceeds the current k-th best: the tail is
// sorted, so every later group is out too. After each wave emit (when
// non-nil) receives a snapshot. The bounds depend only on the query and the
// approximate answer, and the wave size is a constant (parallel.go
// exactWave), never derived from the worker count, so the refined set —
// and with it every deterministic work total — is identical at every
// Workers setting.
func (w *progressiveWalk) finishExact(ctx context.Context, emit ProgressFunc) error {
	e := w.e
	if err := w.boundTail(ctx); err != nil {
		return err
	}
	workers := resolveWorkers(w.opts.Workers, exactWave)
	wave := make([]repCandidate, 0, exactWave)
	for w.refined < len(w.cands) {
		// Collect the next wave of groups the certified bound cannot skip.
		wave = wave[:0]
		idx := w.refined
		for idx < len(w.cands) && len(wave) < exactWave {
			if err := ctx.Err(); err != nil {
				return err
			}
			if w.top.full() && w.cands[idx].lower > w.top.worst().Score {
				// Provably cannot improve the top-k, and neither can any
				// group after it.
				if w.st != nil {
					w.st.GroupsLBPruned += len(w.cands) - idx
				}
				idx = len(w.cands)
				break
			}
			wave = append(wave, w.cands[idx])
			idx++
		}
		if len(wave) > 0 {
			if workers > 1 && len(wave) > 1 {
				if err := e.refineWaveParallel(ctx, w.q, wave, w.c, w.top, w.opts, w.st, workers); err != nil {
					return err
				}
			} else {
				for _, cand := range wave {
					if err := e.refine(ctx, w.q, cand, w.c, w.top, w.opts, w.st); err != nil {
						return err
					}
				}
			}
		}
		w.refined = idx
		if len(wave) > 0 && emit != nil {
			w.wave++
			emit(w.snapshot(false))
		}
	}
	return nil
}

// boundTail sets the certified lower bound of every unrefined candidate:
// groupLower, raised to certLower where the representative distance is
// resolved in every run (so the bound, like the refined set, never depends
// on scheduling). Groups whose bound already exceeds the k-th best move in
// front of the tail as certified-skipped — counted once, here — and the
// survivors are sorted by (bound, length, index).
func (w *progressiveWalk) boundTail(ctx context.Context) error {
	worst := w.top.boundScore()
	tail := w.cands[w.refined:]
	skipped := 0
	for i := range tail {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		cand := &tail[i]
		cand.lower = groupLower(cand.g, cand.env, worst*cand.env.norm) / cand.env.norm
		if w.resolved {
			cand.lower = math.Max(cand.lower, w.certLower(*cand))
		}
		if cand.lower > worst {
			tail[skipped], tail[i] = tail[i], tail[skipped]
			skipped++
		}
	}
	if w.st != nil {
		w.st.GroupsLBPruned += skipped
	}
	w.refined += skipped
	survivors := w.cands[w.refined:]
	sort.Slice(survivors, func(i, j int) bool {
		a, b := &survivors[i], &survivors[j]
		if a.lower != b.lower {
			return a.lower < b.lower
		}
		if a.ref.Length != b.ref.Length {
			return a.ref.Length < b.ref.Length
		}
		return a.ref.Index < b.ref.Index
	})
	w.bounded = true
	return nil
}

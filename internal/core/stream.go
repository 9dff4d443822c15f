package core

import (
	"context"
	"math"
	"slices"

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
//      This snapshot's matches equal what Find returns in approx mode. The
//      walk resolves the representatives the scoring pass pruned lazily,
//      in lower-bound order, so it scores only those it may visit.
//   2. After every certified refinement wave — the exact walk bounds every
//      remaining group (groupLower), sorts the survivors by bound, and
//      refines them one by one until the next bound exceeds the k-th best;
//      every exactWave refined groups close a wave, which yields the
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
	// refined. The approximate snapshot (Seq 0) certifies nothing: the
	// bounds are set when the exact continuation starts, so certification
	// starts at the first wave. It is monotone — once true for a match it
	// stays true — and every flag is true in the final snapshot.
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

// exactWave is how many groups the exact walk refines between two
// progressive snapshots.
const exactWave = 16

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

	// cands[:refined] have had their members fully scanned or been
	// certified-skipped, in no particular order; cands[refined:] are the
	// groups still open, which finishExact sorts by certified lower bound.
	cands   []repCandidate
	top     *topK
	refined int
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
	return e.walkCandidates(ctx, q, k, c, cands, partitionScored(cands), opts, st)
}

// walkCandidates runs the best-first member walk over candidates partitioned
// by partitionScored: cands[:nf] scored and sorted, cands[nf:] pruned.
func (e *Engine) walkCandidates(ctx context.Context, q []float64, k int, c QueryConstraints, cands []repCandidate, nf int, opts Options, st *SearchStats) (*progressiveWalk, error) {
	w := &progressiveWalk{e: e, q: q, k: k, c: c, opts: opts, st: st, cands: cands, top: newTopK(k)}

	// Refine within the most promising groups, in representative order,
	// until a representative scores worse than every collected member: such
	// a group cannot improve an approximate top-k (heuristic: members can
	// score below their representative). The first min(k, maxTrackedK)
	// candidates are the best representatives, exactly scored in every run.
	// To fill k results the walk may need more groups (constraints exclude
	// members; on a singleton base a group yields one member), and walkTail
	// continues it.
	head := min(k, maxTrackedK, len(cands))
	for ; w.refined < head; w.refined++ {
		cand := cands[w.refined]
		if cand.repScore > w.top.boundScore() {
			return w, nil
		}
		if err := e.refineGroup(ctx, q, cand, c, w.top, opts, st); err != nil {
			return nil, err
		}
	}
	if head < len(cands) {
		if err := w.walkTail(ctx, cands[head-1].repScore, nf); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// walkTail continues the approximate walk past the first head candidates in
// true representative order — (score, length, index), the order a fully
// scored and sorted tail would have — and with the same cutoff, without
// scoring the representatives the walk never reaches. Which groups the
// scoring pass pruned depends on the order it scored them in; the visit
// order does not. The walk merges three sources:
//
//   - the finite tail cands[w.refined:nf], exactly scored and sorted;
//   - the pruned block cands[nf:]. Every pruned representative scores
//     strictly above kth, the head's last score and the scoring pass's
//     final k-th best (scoreRepresentatives). While kth meets the cutoff
//     or the next finite score, the block costs nothing: no LB_Keogh, no
//     DTW, and its order is never read;
//   - once it does not, a min-heap of the pruned candidates, each keyed by
//     the larger of its full LBKeogh(rep)/norm and the lower bound the
//     scoring pass left it. A candidate whose key reaches the head without
//     exceeding the cutoff gets its DTWBanded and is re-keyed by its score.
//
// Keys order as (key, unresolved first, length, index): a resolved
// candidate reaches the head only when every unresolved bound is above its
// score, so it is the true next candidate, ties included. The groups it
// refines end up in cands[:w.refined].
func (w *progressiveWalk) walkTail(ctx context.Context, kth float64, nf int) error {
	cands := w.cands
	next := w.refined // the finite tail is cands[next:nf]
	// The pruned block, in place: a heap once keyed, and popped candidates
	// leave it to sit just past its end.
	heap, keyed := cands[nf:], nf == len(cands)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		cutoff := w.top.boundScore()
		if !keyed {
			x := cutoff
			if next < nf {
				x = math.Min(x, cands[next].repScore)
			}
			if kth < x {
				if err := w.keyPruned(ctx, heap); err != nil {
					return err
				}
				keyed = true
			}
		}
		fromHeap := keyed && len(heap) > 0 && (next == nf || walkBefore(&heap[0], &cands[next]))
		var cand *repCandidate
		if fromHeap {
			cand = &heap[0]
		} else if next < nf {
			cand = &cands[next]
		} else {
			break
		}
		if math.IsInf(cand.repDist, 1) {
			if cand.lower > cutoff {
				// Every open candidate scores at least this bound.
				break
			}
			cand.repDist = dist.DTWBanded(w.q, cand.g.Rep, w.opts.Band)
			cand.repScore = cand.repDist / cand.env.norm
			if w.st != nil {
				w.st.RepDTW++
			}
			siftDown(heap, 0)
			continue
		}
		if cand.repScore > cutoff {
			break
		}
		if err := w.e.refineGroup(ctx, w.q, *cand, w.c, w.top, w.opts, w.st); err != nil {
			return err
		}
		if fromHeap {
			// Pop: the root moves just past the shrunk heap.
			last := len(heap) - 1
			heap[0], heap[last] = heap[last], heap[0]
			heap = heap[:last]
			siftDown(heap, 0)
		} else {
			next++
		}
	}
	// cands[:next] are refined, and so are the heap candidates the walk
	// popped, which sit past the heap: swap them in behind.
	popped := cands[nf+len(heap):]
	for i := range popped {
		cands[next+i], popped[i] = popped[i], cands[next+i]
	}
	w.refined = next + len(popped)
	return nil
}

// keyPruned raises every pruned candidate's lower bound (its LB_Kim key or
// the score bound it was pruned against, whichever is larger) to its
// representative's full, unabandoned LBKeogh/norm — LB_Keogh lower-bounds
// the DTW, floating point included — and heapifies them.
func (w *progressiveWalk) keyPruned(ctx context.Context, pruned []repCandidate) error {
	for i := range pruned {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		c := &pruned[i]
		c.lower = math.Max(c.lower, dist.LBKeogh(c.g.Rep, c.env.qU, c.env.qL, math.Inf(1))/c.env.norm)
	}
	for i := len(pruned)/2 - 1; i >= 0; i-- {
		siftDown(pruned, i)
	}
	return nil
}

// walkBefore is walkTail's order: by key — the score once resolved, the
// lower bound until then — with unresolved candidates first on a tie, then
// by group identity.
func walkBefore(a, b *repCandidate) bool {
	ua, ub := math.IsInf(a.repDist, 1), math.IsInf(b.repDist, 1)
	ka, kb := a.repScore, b.repScore
	if ua {
		ka = a.lower
	}
	if ub {
		kb = b.lower
	}
	if ka == kb && ua != ub {
		return ua
	}
	return candidateOrder(ka, kb, a.ref, b.ref) < 0
}

// siftDown restores the min-heap (by walkBefore) below h[i].
func siftDown(h []repCandidate, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && walkBefore(&h[c], &h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
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
// lower bound for every unrefined group, which exists once finishExact has
// set the envelope bounds: before that (the approximate snapshot) nothing
// is certified.
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
	case w.bounded:
		// The unrefined tail is sorted by bound: its minimum is the head's.
		minLower := math.Inf(1)
		if w.refined < len(w.cands) {
			minLower = w.cands[w.refined].lower
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
// survivors in ascending bound order and stops at the first group whose
// bound exceeds the current k-th best: the tail is sorted, so every later
// group is out too. After every exactWave refined groups, and after the
// last, emit (when non-nil) receives a snapshot.
func (w *progressiveWalk) finishExact(ctx context.Context, emit ProgressFunc) error {
	if err := w.boundTail(ctx); err != nil {
		return err
	}
	inWave := 0
	closeWave := func() {
		if inWave > 0 && emit != nil {
			w.wave++
			emit(w.snapshot(false))
		}
		inWave = 0
	}
	for w.refined < len(w.cands) {
		cand := w.cands[w.refined]
		if w.top.full() && cand.lower > w.top.worst().Score {
			// Provably cannot improve the top-k, and neither can any group
			// after it.
			if w.st != nil {
				w.st.GroupsLBPruned += len(w.cands) - w.refined
			}
			w.refined = len(w.cands)
			break
		}
		if err := w.e.refineGroup(ctx, w.q, cand, w.c, w.top, w.opts, w.st); err != nil {
			return err
		}
		w.refined++
		if inWave++; inWave == exactWave {
			closeWave()
		}
	}
	closeWave()
	return nil
}

// boundTail sets the certified lower bound of every unrefined candidate,
// groupLower, which depends only on the query and the approximate answer.
// Groups whose bound already exceeds the k-th best move in front of the
// tail as certified-skipped — counted once, here — and the survivors are
// sorted by (bound, length, index).
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
	slices.SortFunc(survivors, func(a, b repCandidate) int {
		return candidateOrder(a.lower, b.lower, a.ref, b.ref)
	})
	w.bounded = true
	return nil
}

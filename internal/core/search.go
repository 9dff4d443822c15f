package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// ctxCheckStride bounds how many group members are scanned between two
// context-cancellation checks inside the refinement loops.
const ctxCheckStride = 64

// QueryConstraints narrows a similarity search.
type QueryConstraints struct {
	// MinLength/MaxLength bound candidate subsequence lengths; zero values
	// mean the full base range.
	MinLength, MaxLength int
	// ExcludeSeries skips candidates from the named series (used by the
	// demo to avoid returning the query's own source series). Nil means no
	// exclusion. Values are series indices.
	ExcludeSeries map[int]bool
	// ExcludeOverlap skips candidates overlapping this window (used by
	// self-queries so the best match is not the query itself). Zero value
	// excludes nothing.
	ExcludeOverlap ts.SubSeq
}

func (c QueryConstraints) excludes(ref ts.SubSeq) bool {
	if c.ExcludeSeries != nil && c.ExcludeSeries[ref.Series] {
		return true
	}
	if c.ExcludeOverlap.Length > 0 && ref.Overlaps(c.ExcludeOverlap) {
		return true
	}
	return false
}

// search is the shared top-k entry point: it validates the query, resolves
// candidate lengths, and dispatches on the per-call mode. It honours ctx
// cancellation between pruning rounds (per group and per member batch) and
// returns ctx.Err() when the caller gave up. progress, when non-nil,
// receives pipeline snapshots in exact mode (see stream.go); approx-mode
// calls never invoke it — the approximate answer is the whole result.
func (e *Engine) search(ctx context.Context, q []float64, k int, c QueryConstraints, opts Options, st *SearchStats, progress ProgressFunc) ([]Match, error) {
	if len(q) < 2 {
		return nil, fmt.Errorf("core: query length %d too short (need >= 2)", len(q))
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k = %d must be >= 1", k)
	}
	// Pin mmap-backed values for the whole walk (no-op for heap datasets):
	// the backing mapping cannot be released while the search dereferences
	// member windows.
	release, err := e.ds.Pin()
	if err != nil {
		return nil, fmt.Errorf("core: search: %w", err)
	}
	defer release()
	lengths := e.candidateLengths(c)
	if len(lengths) == 0 {
		return nil, ErrNoMatch
	}
	switch opts.Mode {
	case ModeExact:
		return e.kbestExact(ctx, q, k, c, lengths, opts, st, progress)
	default:
		return e.kbestApprox(ctx, q, k, c, lengths, opts, st)
	}
}

func (e *Engine) candidateLengths(c QueryConstraints) []int {
	minL, maxL := c.MinLength, c.MaxLength
	if minL <= 0 {
		minL = e.base.MinLength
	}
	if maxL <= 0 {
		maxL = e.base.MaxLength
	}
	var out []int
	for _, l := range e.base.Lengths() {
		if l >= minL && l <= maxL {
			out = append(out, l)
		}
	}
	return out
}

// norm returns the score divisor for candidates of length l: 1 for raw
// ranking, max(qlen, l) for length-normalized ranking.
func (o Options) norm(qlen, l int) float64 {
	if !o.LengthNorm {
		return 1
	}
	if qlen > l {
		return float64(qlen)
	}
	return float64(l)
}

// lengthEnv is the per-length query precomputation shared (read-only) by
// every group of one candidate length.
type lengthEnv struct {
	norm   float64 // score divisor (Options.norm)
	half   float64 // HalfST(l): the §3.1 member-to-representative ED bound
	qU, qL []float64
}

// lengthEnvFor computes the query envelope and constants for length l.
func (e *Engine) lengthEnvFor(q []float64, l int, opts Options) *lengthEnv {
	qU, qL := dist.Envelope(q, l, opts.Band)
	return &lengthEnv{norm: opts.norm(len(q), l), half: e.base.HalfST(l), qU: qU, qL: qL}
}

// repCandidate is a group scored by its representative's DTW distance.
type repCandidate struct {
	ref      GroupRef
	g        *grouping.Group
	env      *lengthEnv
	repDist  float64 // raw DTW(q, rep); +Inf while pruned and unresolved
	repScore float64 // repDist / env.norm
	// lower is a score lower bound. A pruned candidate leaves the scoring
	// pass with the larger of its LB_Kim key (at most its score) and the
	// score bound it lost to (below its score), raised to LBKeogh(rep)/norm
	// if the approximate walk keys it: the walk's order while it stays
	// unresolved (stream.go walkTail). On the groups the walk leaves
	// unrefined, finishExact overwrites it with the certified bound over the
	// group's members (groupLower).
	lower float64
}

// rawBound converts a score bound b into the raw distance the cascade
// abandons against: the largest d with d/norm <= b in floating point. A
// representative whose DTW exceeds it scores above b, rounding included —
// which the plain product b*norm does not guarantee once norm != 1.
func rawBound(b, norm float64) float64 {
	d := b * norm
	if math.IsInf(d, 1) {
		return d
	}
	for d/norm > b {
		d = math.Nextafter(d, math.Inf(-1))
	}
	for up := math.Nextafter(d, math.Inf(1)); up/norm <= b; up = math.Nextafter(up, math.Inf(1)) {
		d = up
	}
	return d
}

// rawBounds caches rawBound for the last (bound, norm) pair: the score bound
// changes only when the k-th best improves, and the norm takes one value
// per length.
type rawBounds struct{ b, norm, ub float64 }

func (r *rawBounds) of(b, norm float64) float64 {
	if b != r.b || norm != r.norm {
		*r = rawBounds{b, norm, rawBound(b, norm)}
	}
	return r.ub
}

// scoreRepresentatives scores the representatives of every group of the
// candidate lengths best-first, so the running k-th best representative
// score — the bound every step abandons against, converted by rawBound — is
// tight before most DTWs run:
//
//  1. One pass keys every representative by its LB_Kim score bound,
//     LBKim/norm, and buckets the keys in order (lbBuckets).
//  2. Representatives are visited bucket by bucket, in ascending key order.
//     A visited one whose key is still within the k-th best gets LB_Keogh,
//     abandoned at the bound; a survivor waits in a min-heap keyed by
//     max(LB_Kim, LB_Keogh)/norm.
//  3. A waiting representative gets its early-abandoning DTW once its key
//     is no higher than the least unvisited key: nothing unvisited can beat
//     it to the head.
//  4. The pass stops when the least unvisited key and the heap head both
//     exceed the k-th best.
//
// A group whose representative provably cannot enter the top-k leaves with
// repDist = +Inf and, as lower, the larger of its key and the score bound it
// lost to: its score is strictly above the final k-th best. The context is
// checked once per visited representative and per DTW.
func (e *Engine) scoreRepresentatives(ctx context.Context, q []float64, k int, lengths []int, opts Options, st *SearchStats) ([]repCandidate, error) {
	n := 0
	for _, l := range lengths {
		n += len(e.base.GroupsOfLength(l))
	}
	cands := make([]repCandidate, 0, n)
	for _, l := range lengths {
		groups := e.base.GroupsOfLength(l)
		if len(groups) == 0 {
			continue
		}
		env := e.lengthEnvFor(q, l, opts)
		//onex:nopoll O(1) LB_Kim per group; the best-first visit below polls per representative
		for gi, g := range groups {
			cands = append(cands, repCandidate{
				ref: GroupRef{Length: l, Index: gi}, g: g, env: env,
				repDist: math.Inf(1), repScore: math.Inf(1),
				lower: dist.LBKim(q, g.Rep) / env.norm,
			})
		}
	}
	if st != nil {
		st.Groups += len(cands)
	}
	// kth tracks the k-th best representative score seen so far.
	kth := newKthTracker(k)
	var raw rawBounds
	waiting := keyHeap{cands: cands}
	// resolve runs the DTW of every waiting representative keyed at or
	// below limit and the k-th best, least key first.
	resolve := func(limit float64) error {
		for len(waiting.idx) > 0 {
			b := kth.bound()
			c := &cands[waiting.idx[0]]
			if c.lower > limit || c.lower > b {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			waiting.pop()
			if st != nil {
				st.RepDTW++
			}
			d := dist.DTWEarlyAbandon(q, c.g.Rep, opts.Band, raw.of(b, c.env.norm))
			if math.IsInf(d, 1) {
				c.lower = math.Max(c.lower, b)
				continue
			}
			c.repDist, c.repScore = d, d/c.env.norm
			kth.offer(c.repScore)
		}
		return nil
	}
	buckets := newLBBuckets(cands)
	for bi := range buckets.min {
		next := buckets.min[bi] // the least unvisited key
		if err := resolve(next); err != nil {
			return nil, err
		}
		if next > kth.bound() {
			// resolve left no waiting key at or below the k-th best either.
			break
		}
		for _, i := range buckets.of(bi) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c := &cands[i]
			b := kth.bound()
			if c.lower > b {
				continue
			}
			ub := raw.of(b, c.env.norm)
			if lb := dist.LBKeogh(c.g.Rep, c.env.qU, c.env.qL, ub); lb > ub {
				c.lower = math.Max(c.lower, b)
			} else {
				c.lower = math.Max(c.lower, lb/c.env.norm)
				waiting.push(i)
			}
		}
	}
	if err := resolve(math.Inf(1)); err != nil {
		return nil, err
	}
	return cands, nil
}

// lbBuckets orders candidate indices by their LB_Kim key (repCandidate.lower)
// with one counting sort over about n/8 equal-width buckets: the bucket of a
// key is monotone in it, so every key of a bucket is at most every key of a
// later one. The order inside a bucket is scan order.
type lbBuckets struct {
	order []int32 // candidate indices, bucket by bucket
	start []int32 // bucket bi holds order[start[bi]:start[bi+1]]
	// min[bi] is the least key in buckets bi and later (+Inf past the last
	// key): the least unvisited key when the visit reaches bucket bi, empty
	// buckets included.
	min []float64
}

func newLBBuckets(cands []repCandidate) lbBuckets {
	nb := max(len(cands)/8, 1)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range cands {
		lo, hi = min(lo, cands[i].lower), max(hi, cands[i].lower)
	}
	scale := float64(nb) / (hi - lo)
	if !(scale < math.Inf(1)) {
		scale = 0 // a single key value (or NaN keys): one bucket
	}
	bucket := func(key float64) int { return min(max(int((key-lo)*scale), 0), nb-1) }
	bs := lbBuckets{order: make([]int32, len(cands)), start: make([]int32, nb+1), min: make([]float64, nb+1)}
	for i := range bs.min {
		bs.min[i] = math.Inf(1)
	}
	for i := range cands {
		bi := bucket(cands[i].lower)
		bs.start[bi+1]++
		bs.min[bi] = min(bs.min[bi], cands[i].lower)
	}
	for bi := 0; bi < nb; bi++ {
		bs.start[bi+1] += bs.start[bi]
	}
	for bi := nb - 1; bi >= 0; bi-- {
		bs.min[bi] = min(bs.min[bi], bs.min[bi+1])
	}
	fill := slices.Clone(bs.start[:nb])
	for i := range cands {
		bi := bucket(cands[i].lower)
		bs.order[fill[bi]] = int32(i)
		fill[bi]++
	}
	bs.min = bs.min[:nb]
	return bs
}

// of returns the candidate indices of bucket bi.
func (bs lbBuckets) of(bi int) []int32 { return bs.order[bs.start[bi]:bs.start[bi+1]] }

// keyHeap is a min-heap of candidate indices by (lower, index): the
// representatives that passed LB_Keogh and wait for their DTW.
type keyHeap struct {
	cands []repCandidate
	idx   []int32
}

func (h *keyHeap) less(a, b int32) bool {
	ka, kb := h.cands[a].lower, h.cands[b].lower
	return ka < kb || ka == kb && a < b
}

func (h *keyHeap) push(i int32) {
	h.idx = append(h.idx, i)
	for j := len(h.idx) - 1; j > 0; {
		p := (j - 1) / 2
		if !h.less(h.idx[j], h.idx[p]) {
			break
		}
		h.idx[j], h.idx[p] = h.idx[p], h.idx[j]
		j = p
	}
}

func (h *keyHeap) pop() {
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	for j := 0; ; {
		least := j
		for _, c := range [2]int{2*j + 1, 2*j + 2} {
			if c < len(h.idx) && h.less(h.idx[c], h.idx[least]) {
				least = c
			}
		}
		if least == j {
			return
		}
		h.idx[j], h.idx[least] = h.idx[least], h.idx[j]
		j = least
	}
}

// partitionScored moves the scored candidates in front of the pruned (+Inf)
// ones in one pass, sorts the scored prefix by (score, length, index), and
// returns its length. The pruned block is left in whatever order the pass
// leaves it: the walk never reads that order. walkTail heapifies the block
// under walkBefore and boundTail re-sorts exact-mode survivors, both total
// orders, so either sees the same sequence from any starting arrangement.
func partitionScored(cands []repCandidate) int {
	nf := 0
	for i := range cands {
		if !math.IsInf(cands[i].repDist, 1) {
			cands[nf], cands[i] = cands[i], cands[nf]
			nf++
		}
	}
	slices.SortFunc(cands[:nf], func(a, b repCandidate) int {
		return candidateOrder(a.repScore, b.repScore, a.ref, b.ref)
	})
	return nf
}

// candidateOrder is the candidate order of the walk: by key (a score or a
// lower bound), ties broken by group identity. The order is total, so a sort
// under it does not depend on the arrangement it starts from, which the
// scoring pass decides.
func candidateOrder(ka, kb float64, a, b GroupRef) int {
	if c := cmp.Compare(ka, kb); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Length, b.Length); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// kbestApprox implements the paper's search: pick the top-k groups by
// representative score, then take the best members inside them. It is the
// approximate phase of the progressive pipeline (stream.go), stopped after
// its first emission boundary.
func (e *Engine) kbestApprox(ctx context.Context, q []float64, k int, c QueryConstraints, lengths []int, opts Options, st *SearchStats) ([]Match, error) {
	w, err := e.startWalk(ctx, q, k, c, lengths, opts, st)
	if err != nil {
		return nil, err
	}
	if st != nil {
		// Every group the walk did not refine was pruned: the count is
		// Groups - GroupsRefined, as in exact mode.
		st.GroupsLBPruned += len(w.cands) - w.refined
	}
	if w.top.len() == 0 {
		return nil, ErrNoMatch
	}
	return e.finishMatches(q, w.top.sorted(), opts), nil
}

// kbestExact drives the progressive pipeline to its certified end: the
// approximate phase seeds the accumulator, then the remaining groups are
// bounded by their representative's envelope bound and the survivors
// refined in fixed-size waves (stream.go finishExact); the result is the
// true top-k. progress, when non-nil, receives a snapshot after the
// approximate phase, after every wave, and a final one equal to the
// returned matches.
func (e *Engine) kbestExact(ctx context.Context, q []float64, k int, c QueryConstraints, lengths []int, opts Options, st *SearchStats, progress ProgressFunc) ([]Match, error) {
	w, err := e.startWalk(ctx, q, k, c, lengths, opts, st)
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress(w.snapshot(false))
	}
	if err := w.finishExact(ctx, progress); err != nil {
		return nil, err
	}
	if w.top.len() == 0 {
		return nil, ErrNoMatch
	}
	final := w.snapshot(true)
	if progress != nil {
		progress(final)
	}
	return final.Matches, nil
}

// boundScore is the current k-th best score (+Inf until full), the
// member-level pruning bound.
func (t *topK) boundScore() float64 {
	if t.full() {
		return t.worst().Score
	}
	return math.Inf(1)
}

// refineGroup scans a group's members with an LB cascade and early-abandon
// DTW, offering improvements to the top-k accumulator. The context is
// re-checked every ctxCheckStride members so large groups abandon promptly.
func (e *Engine) refineGroup(ctx context.Context, q []float64, cand repCandidate, c QueryConstraints, top *topK, opts Options, st *SearchStats) error {
	qU, qL, norm := cand.env.qU, cand.env.qL, cand.env.norm
	if st != nil {
		st.GroupsRefined++
		st.Members += len(cand.g.Members)
	}
	var raw rawBounds
	for mi, m := range cand.g.Members {
		if mi%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if c.excludes(m) {
			continue
		}
		mv := m.Values(e.ds)
		ub := raw.of(top.boundScore(), norm)
		if dist.LBKim(q, mv) > ub {
			continue
		}
		if dist.LBKeogh(mv, qU, qL, ub) > ub {
			continue
		}
		if st != nil {
			st.MemberDTW++
		}
		d := dist.DTWEarlyAbandon(q, mv, opts.Band, ub)
		if math.IsInf(d, 1) {
			continue
		}
		top.offer(Match{
			Ref:    m,
			Values: mv,
			Dist:   d,
			Score:  d / norm,
			Group:  cand.ref,
		})
	}
	return nil
}

// scanGroups runs fn over every job in order and collects the accepted
// results, polling ctx before each job. It is the shared scan of the range,
// seasonal and common-pattern walks, whose per-group work needs no
// cross-group state.
func scanGroups[J, R any](ctx context.Context, jobs []J, fn func(J) (R, bool, error)) ([]R, error) {
	var out []R
	for _, j := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, ok, err := fn(j)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// finishMatches fills in warping paths (presentation data) for the final
// result set only, so inner loops never pay the full-matrix cost.
func (e *Engine) finishMatches(q []float64, ms []Match, opts Options) []Match {
	for i := range ms {
		_, path := dist.DTWPath(q, ms[i].Values, opts.Band)
		ms[i].Path = path
	}
	return ms
}

// matchBefore is the total result order: ascending Score, ties broken by
// subsequence identity. A total order keeps accumulators (and final result
// lists) deterministic regardless of offer order.
func matchBefore(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.Ref.Series != b.Ref.Series {
		return a.Ref.Series < b.Ref.Series
	}
	if a.Ref.Start != b.Ref.Start {
		return a.Ref.Start < b.Ref.Start
	}
	return a.Ref.Length < b.Ref.Length
}

// topK accumulates the k best matches seen, deduplicating by Ref.
type topK struct {
	k  int
	ms []Match
}

func newTopK(k int) *topK { return &topK{k: k} }

func (t *topK) len() int   { return len(t.ms) }
func (t *topK) full() bool { return len(t.ms) >= t.k }
func (t *topK) worst() Match {
	return t.ms[len(t.ms)-1]
}

func (t *topK) offer(m Match) {
	for i := range t.ms {
		if t.ms[i].Ref == m.Ref {
			if m.Score < t.ms[i].Score {
				t.ms[i] = m
				t.restore()
			}
			return
		}
	}
	if len(t.ms) < t.k {
		t.ms = append(t.ms, m)
		t.restore()
		return
	}
	if matchBefore(m, t.ms[len(t.ms)-1]) {
		t.ms[len(t.ms)-1] = m
		t.restore()
	}
}

// restore re-sorts the small accumulator (k is tiny; insertion sort).
func (t *topK) restore() {
	for i := len(t.ms) - 1; i > 0; i-- {
		if matchBefore(t.ms[i], t.ms[i-1]) {
			t.ms[i], t.ms[i-1] = t.ms[i-1], t.ms[i]
		} else {
			break
		}
	}
}

func (t *topK) sorted() []Match {
	out := make([]Match, len(t.ms))
	copy(out, t.ms)
	return out
}

// maxTrackedK saturates the k-th-best tracker of representative scoring:
// beyond it the bound is useless anyway.
const maxTrackedK = 1024

// kthTracker tracks the k-th smallest value offered, as the abandon bound
// for representative scoring.
type kthTracker struct {
	k    int
	vals []float64
}

func newKthTracker(k int) *kthTracker {
	// Saturating only over-prunes representatives, which is harmless: the
	// approximate walk takes only the first min(k, maxTrackedK) candidates
	// as scored and resolves a pruned representative lazily, when its lower
	// bound reaches the head of the walk (walkTail); exact mode needs no
	// representative distance — finishExact bounds every unrefined group by
	// its representative's LB_Keogh (groupLower).
	return &kthTracker{k: min(max(k, 1), maxTrackedK)}
}

// offer inserts v with a single insertion shift (the slice is always
// sorted, so a full re-sort per improvement would waste O(k log k) on
// every group).
func (kt *kthTracker) offer(v float64) {
	if len(kt.vals) < kt.k {
		kt.vals = append(kt.vals, v)
	} else if v < kt.vals[kt.k-1] {
		kt.vals[kt.k-1] = v
	} else {
		return
	}
	for i := len(kt.vals) - 1; i > 0 && kt.vals[i] < kt.vals[i-1]; i-- {
		kt.vals[i], kt.vals[i-1] = kt.vals[i-1], kt.vals[i]
	}
}

func (kt *kthTracker) bound() float64 {
	if len(kt.vals) < kt.k {
		return math.Inf(1)
	}
	return kt.vals[kt.k-1]
}

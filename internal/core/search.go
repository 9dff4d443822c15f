package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

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

// search is the one entry point of every similarity query: it validates
// the query, pins the dataset, resolves candidate lengths and takes a pooled
// walk state, then runs the walk fo asks for. A range query runs the exact
// walk against a fixed ceiling (kbestRange); a top-k query dispatches on the
// per-call mode. It honours ctx cancellation between pruning rounds (per
// group and per member batch) and returns ctx.Err() when the caller gave
// up. fo.Progress, when non-nil, receives pipeline snapshots in exact mode
// (see stream.go); approx-mode and range calls never invoke it.
func (e *Engine) search(ctx context.Context, q []float64, fo FindOptions, st *SearchStats) ([]Match, error) {
	if err := checkQuery(q); err != nil {
		return nil, err
	}
	switch {
	case fo.Range && !(fo.MaxDist >= 0):
		return nil, fmt.Errorf("core: range: MaxDist %g must be non-negative", fo.MaxDist)
	case !fo.Range && fo.K < 1:
		return nil, fmt.Errorf("core: k = %d must be >= 1", fo.K)
	}
	// Pin mmap-backed values for the whole walk (no-op for heap datasets):
	// the backing mapping cannot be released while the search dereferences
	// member windows.
	release, err := e.ds.Pin()
	if err != nil {
		return nil, fmt.Errorf("core: search: %w", err)
	}
	defer release()
	lengths := e.candidateLengths(fo.Constraints)
	if len(lengths) == 0 {
		return nil, ErrNoMatch
	}
	// One pooled walk state per query, returned on every exit: an answer,
	// an error, cancellation or a panicking progress sink.
	ws := getWalkState()
	defer ws.release()
	switch {
	case fo.Range:
		return e.kbestRange(ctx, ws, q, max(fo.K, 0), fo.MaxDist, fo.Constraints, lengths, fo.Options, st)
	case fo.Mode == ModeExact:
		return e.kbestExact(ctx, ws, q, fo.K, fo.Constraints, lengths, fo.Options, st, fo.Progress)
	default:
		return e.kbestApprox(ctx, ws, q, fo.K, fo.Constraints, lengths, fo.Options, st)
	}
}

// checkQuery rejects a query the walks cannot rank: one shorter than two
// points, or one holding a NaN or an infinity, whose distances are NaN or
// +Inf for every candidate.
func checkQuery(q []float64) error {
	if len(q) < 2 {
		return fmt.Errorf("core: query length %d too short (need >= 2)", len(q))
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: query value %d is %g: values must be finite", i, v)
		}
	}
	return nil
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

// setLengthEnv computes the query envelope and constants for length l into
// env: the envelope reuses env's arrays and kern's deques, so a walk that
// keeps both across queries computes it without allocating.
func (e *Engine) setLengthEnv(env *lengthEnv, kern *dist.Workspace, q []float64, l int, opts Options) {
	qU, qL := kern.Envelope(q, l, opts.Band, env.qU, env.qL)
	*env = lengthEnv{norm: opts.norm(len(q), l), half: e.base.HalfST(l), qU: qU, qL: qL}
}

// repCandidate is a candidate group of the top-k walk: 16 bytes and no
// pointer, so the walk's candidate array is contiguous memory the garbage
// collector never scans. The group is walkState.slots[slot].groups[idx];
// slots ascend with length, so (slot, idx) order is (length, index) order.
type repCandidate struct {
	// lower is the group's key in the best-first browse (stream.go browse):
	// a lower bound on its representative's score that rises from LB_Kim
	// through LB_Keogh to the score itself, or to just above a bound the
	// representative failed. On the groups the walk leaves unrefined,
	// finishExact overwrites it with the certified bound over the group's
	// members (groupLower), except on a radius-zero group, whose key
	// already bounds its one member (boundTail).
	lower     float64
	slot, idx int32
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

// lbBuckets yields candidate indices in ascending LB_Kim key order
// (repCandidate.lower, read before the browse raises it). One counting sort
// spreads the keys over about n/8 equal-width buckets; the bucket of a key
// is monotone in it, so every key of a bucket is at most every key of a
// later one, and a bucket is sorted only when the cursor reaches it. Its
// arrays live in the pooled walkState and are rebuilt by reset.
type lbBuckets struct {
	cands []repCandidate
	order []int32 // candidate indices, bucket by bucket
	start []int32 // bucket bi holds order[start[bi]:start[bi+1]]
	fill  []int32 // reset's scratch: the next free slot of each bucket
	// pos is the cursor into order; buckets before sorted are sorted.
	pos, sorted int
}

// reset spreads cands over the buckets, reusing the arrays of a previous
// query.
func (bs *lbBuckets) reset(cands []repCandidate) {
	nb := max(len(cands)/8, 1)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range cands {
		// Plain comparisons, not the min and max builtins, whose NaN and
		// signed-zero handling costs a call per key; keys are never NaN
		// (queries and values are finite).
		k := cands[i].lower
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	scale := float64(nb) / (hi - lo)
	if !(scale < math.Inf(1)) {
		scale = 0 // a single key value (or NaN keys): one bucket
	}
	bucket := func(key float64) int { return min(max(int((key-lo)*scale), 0), nb-1) }
	bs.cands, bs.pos, bs.sorted = cands, 0, 0
	bs.order = resize(bs.order, len(cands))
	bs.start = resize(bs.start, nb+1)
	clear(bs.start)
	for i := range cands {
		bs.start[bucket(cands[i].lower)+1]++
	}
	for bi := 0; bi < nb; bi++ {
		bs.start[bi+1] += bs.start[bi]
	}
	bs.fill = append(bs.fill[:0], bs.start[:nb]...)
	for i := range cands {
		bi := bucket(cands[i].lower)
		bs.order[bs.fill[bi]] = int32(i)
		bs.fill[bi]++
	}
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// head returns the candidate at the cursor and its key, or ok = false once
// every index has been taken.
func (bs *lbBuckets) head() (i int32, key float64, ok bool) {
	if bs.pos == len(bs.order) {
		return 0, math.Inf(1), false
	}
	for ; int(bs.start[bs.sorted]) <= bs.pos; bs.sorted++ {
		slices.SortFunc(bs.order[bs.start[bs.sorted]:bs.start[bs.sorted+1]], func(a, b int32) int {
			return cmp.Compare(bs.cands[a].lower, bs.cands[b].lower)
		})
	}
	i = bs.order[bs.pos]
	return i, bs.cands[i].lower, true
}

// keyHeap is a min-heap of candidate indices in browse order: by key
// (repCandidate.lower), keys below levelScore first on a tie, then by
// index, which is (length, index) order.
type keyHeap struct {
	cands []repCandidate
	level []uint8 // the level of each candidate's key
	idx   []int32
}

// reset empties the heap over a new candidate array, keeping idx's array.
func (h *keyHeap) reset(cands []repCandidate, level []uint8) {
	h.cands, h.level, h.idx = cands, level, h.idx[:0]
}

func (h *keyHeap) less(a, b int32) bool {
	if ka, kb := h.cands[a].lower, h.cands[b].lower; ka != kb {
		return ka < kb
	}
	if sa := h.level[a] == levelScore; sa != (h.level[b] == levelScore) {
		return !sa
	}
	return a < b
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
	h.fix()
}

// fix restores the heap after the head's key rose.
func (h *keyHeap) fix() {
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

// candidateOrder orders candidates by key (a score or a lower bound), ties
// broken by group identity: (slot, idx), which is (length, index). The
// order is total, so a sort under it does not depend on the arrangement it
// starts from, which the browse decides.
func candidateOrder(a, b repCandidate) int {
	if c := cmp.Compare(a.lower, b.lower); c != 0 {
		return c
	}
	if c := cmp.Compare(a.slot, b.slot); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// kbestApprox implements the paper's search: pick the top-k groups by
// representative score, then take the best members inside them. It is the
// approximate phase of the progressive pipeline (stream.go), stopped after
// its first emission boundary. The walk runs in ws.
func (e *Engine) kbestApprox(ctx context.Context, ws *walkState, q []float64, k int, c QueryConstraints, lengths []int, opts Options, st *SearchStats) ([]Match, error) {
	w, err := e.startWalk(ctx, ws, q, k, c, lengths, opts, st)
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
// bounded by their representative's envelope bound, or a radius-zero
// group's browse key, and the survivors' members scored best-first across
// groups, in waves (stream.go finishExact); the result is the true top-k.
// progress, when non-nil, receives a snapshot after the approximate phase,
// after every wave, and a final one equal to the returned matches. The
// walk runs in ws.
func (e *Engine) kbestExact(ctx context.Context, ws *walkState, q []float64, k int, c QueryConstraints, lengths []int, opts Options, st *SearchStats, progress ProgressFunc) ([]Match, error) {
	w, err := e.startWalk(ctx, ws, q, k, c, lengths, opts, st)
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

// kbestRange answers a range query with the exact walk: a range query is
// incremental distance browsing stopped at a fixed radius. It keys every
// group by LB_Kim as the top-k walk does, skips the browse, and runs
// finishExact, with no progress sink, against a sink whose ceiling is
// maxDist: k = 0 collects every match within it, and k > 0 keeps the k best,
// pruning against min(maxDist, k-th best). No representative DTW runs. The
// matches are best first, with paths; an empty answer is not an error.
// The walk runs in ws.
func (e *Engine) kbestRange(ctx context.Context, ws *walkState, q []float64, k int, maxDist float64, c QueryConstraints, lengths []int, opts Options, st *SearchStats) ([]Match, error) {
	w := e.keyWalk(ws, q, newTopK(k, maxDist), c, lengths, opts, st)
	if err := w.finishExact(ctx, nil); err != nil {
		return nil, err
	}
	return e.finishMatches(q, w.top.sorted(), opts), nil
}

// boundScore is the walk's pruning bound: the k-th best score once k
// matches are held, the ceiling until then (+Inf for a top-k query).
func (t *topK) boundScore() float64 {
	if t.full() {
		return t.worst().Score
	}
	return t.ceiling
}

// refineGroup is the browse's member scan: it scans the members of g, the
// group ref with query environment env, with an LB cascade and
// early-abandon DTW on the walk's rows, offering improvements to the top-k
// accumulator. The context is re-checked every ctxCheckStride members so
// large groups abandon promptly.
func (w *progressiveWalk) refineGroup(ctx context.Context, g *grouping.Group, env *lengthEnv, ref GroupRef) error {
	qU, qL, norm := env.qU, env.qL, env.norm
	if w.st != nil {
		w.st.GroupsRefined++
		w.st.Members += len(g.Members)
	}
	var raw rawBounds
	for mi, m := range g.Members {
		if mi%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if w.c.excludes(m) {
			continue
		}
		mv := m.Values(w.e.ds)
		ub := raw.of(w.top.boundScore(), norm)
		if dist.LBKim(w.q, mv) > ub {
			continue
		}
		if dist.LBKeogh(mv, qU, qL, ub) > ub {
			continue
		}
		if w.st != nil {
			w.st.MemberDTW++
		}
		d := w.kern.DTWEarlyAbandon(w.q, mv, w.opts.Band, ub)
		if math.IsInf(d, 1) {
			continue
		}
		w.top.offer(Match{
			Ref:    m,
			Values: mv,
			Dist:   d,
			Score:  d / norm,
			Group:  ref,
		})
	}
	return nil
}

// scanGroups runs fn over every job in order and collects the accepted
// results, polling ctx before each job. It is the shared scan of the
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

// topK is the walk's sink: it accumulates the k best matches seen whose
// score is at most ceiling (+Inf for a top-k query), deduplicating by Ref.
// k = 0 collects every match within the ceiling, unsorted until sorted: a
// range query's bound never tightens, and the walk scores each member at
// most once, so it needs neither the dedup scan nor the insertion shift,
// which would make a large collection quadratic.
type topK struct {
	k       int
	ceiling float64
	ms      []Match
}

func newTopK(k int, ceiling float64) *topK { return &topK{k: k, ceiling: ceiling} }

func (t *topK) len() int   { return len(t.ms) }
func (t *topK) full() bool { return t.k > 0 && len(t.ms) >= t.k }
func (t *topK) worst() Match {
	return t.ms[len(t.ms)-1]
}

// offer keeps m if it scores within the ceiling and among the k best. The
// ceiling is checked here, not left to the kernel: an early-abandoning DTW
// can return a finite distance above its bound.
func (t *topK) offer(m Match) {
	if m.Score > t.ceiling {
		return
	}
	if t.k == 0 {
		t.ms = append(t.ms, m)
		return
	}
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

// sorted returns a copy of the matches, best first.
func (t *topK) sorted() []Match {
	if t.k == 0 {
		sort.Slice(t.ms, func(i, j int) bool { return matchBefore(t.ms[i], t.ms[j]) })
	}
	out := make([]Match, len(t.ms))
	copy(out, t.ms)
	return out
}

// maxTrackedK saturates the k-th-best tracker of the browse: beyond it the
// bound is useless anyway.
const maxTrackedK = 1024

// kthTracker tracks the k-th smallest value offered: the k-th best
// representative score, which the browse abandons against.
type kthTracker struct {
	k    int
	vals []float64
}

func newKthTracker(k int) *kthTracker {
	// Saturating only tightens the bound, which is harmless: the browse
	// re-keys a representative that fails it just above the bound instead
	// of dropping it, and evaluates it again, against the cutoff alone, if
	// the key reaches the head (stream.go browse).
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

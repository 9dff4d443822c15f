package core

import (
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/dist"
	"repro/internal/grouping"
)

// Progressive refinement: the top-k search restructured as a resumable
// pipeline with an event sink. One walk serves three entry points:
//
//   - Find (exact mode) drives the pipeline to completion and returns the
//     final answer — the one-shot spelling.
//   - Find with FindOptions.Progress set emits a Snapshot at every
//     emission boundary, so callers (onex.DB.Stream, the NDJSON endpoint)
//     can show the analyst an answer that refines while the walk runs.
//   - Find with FindOptions.Range set, and the similarity sweep, skip the
//     approximate phase and run the exact continuation against a fixed
//     ceiling, MaxDist (search.go kbestRange), emitting nothing.
//
// The emission boundaries are the points where the search has a coherent
// intermediate answer:
//
//   1. After the approximate phase — the paper's search (best groups by
//      representative distance, refined best-first until the cutoff).
//      This snapshot's matches equal what Find returns in approx mode. The
//      walk is one best-first browse over the LB cascade (browse), so it
//      scores only the representatives it may visit.
//   2. After every certified refinement wave — the exact walk bounds every
//      remaining group (groupLower, or a radius-zero group's browse key;
//      see boundTail), sorts the survivors by bound, and then scores
//      members best-first across groups: one browse over the sorted tail,
//      a queue of expanded groups and a queue of members, each keyed by a
//      lower bound, which runs a member's DTW only once its bound is the
//      least left and stops when every key exceeds the k-th best (see
//      finishExact). Every exactWave groups whose members are queued close
//      a wave, which yields the current top-k plus per-match certification.
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
	// the certified lower bound of every member the walk has not yet
	// scored or ruled out — the least key of the unexpanded groups, the
	// queued groups and the queued members. The approximate snapshot
	// (Seq 0) certifies nothing: the bounds are set when the exact
	// continuation starts, so certification starts at the first wave. It is monotone — once true for a match it
	// stays true — and every flag is true in the final snapshot.
	Certified []bool
	// Stats is the cumulative work since the walk started.
	Stats SearchStats
	// GroupsRemaining is how many candidate groups the walk has not yet
	// certified-skipped or finished queueing the members of: the groups it
	// has not expanded plus the expanded groups still waiting in its group
	// queue. It only shrinks, and is 0 in the final snapshot.
	GroupsRemaining int
	// Wave is the refinement wave this snapshot closes: 0 for the
	// approximate phase, 1..N for the certified waves (the final snapshot
	// repeats N).
	Wave int
	// Final marks the terminating snapshot; its Matches (and Stats) equal
	// the exact-mode Find result.
	Final bool
}

// exactWave is how many queued groups the exact walk takes (and queues the
// members of) between two progressive snapshots.
const exactWave = 16

// ProgressFunc receives pipeline snapshots. It is invoked synchronously
// from the search goroutine; blocking in the sink blocks the walk.
type ProgressFunc func(Snapshot)

// walkState holds the arrays of one walk, sized by the candidate groups:
// search takes one from walkStates per query, runs kbestApprox, kbestExact
// or kbestRange in it and returns it when the query ends, so a query
// allocates no per-group array once the pool is warm. Every array is
// re-initialized by the step that uses it (keyWalk, browse, moveToFront).
type walkState struct {
	// slots holds one entry per candidate length with groups, ascending;
	// repCandidate.slot indexes it.
	slots []walkSlot
	// cands[:refined] have had their members fully scanned (the approximate
	// phase's in visit order) or been certified-skipped; cands[refined:] are
	// the groups still open, which finishExact sorts by certified lower
	// bound.
	cands   []repCandidate
	level   []uint8 // the browse level of each candidate's key
	buckets lbBuckets
	heap    keyHeap
	visit   []int32 // the candidates the browse refined, in visit order
	// moveToFront's scratch.
	moved []repCandidate
	front []bool
	// finishExact's queues: expanded groups waiting for their members'
	// LB_Keogh, and members waiting for their DTW; kept holds, group by
	// group in expansion order, the indices of the members each expansion
	// kept, each group's run ended by -1.
	groupQ, memberQ entryHeap
	kept            []int32
	// kern holds the rows of every DTW and the deques of every envelope the
	// walk computes; envs holds the query environment of each slot.
	kern dist.Workspace
	envs []lengthEnv
}

// walkSlot is one candidate length of a walk: its groups and the query's
// precomputation for it.
type walkSlot struct {
	length int
	groups []*grouping.Group
	env    *lengthEnv
}

// walkStates pools walk states across queries: one Get and one Put per
// query, never per group or per DTW.
var walkStates = sync.Pool{New: func() any { return new(walkState) }}

func getWalkState() *walkState { return walkStates.Get().(*walkState) }

// release returns ws to the pool. It drops the group and environment
// references first, so a pooled state pins no retired base or mapping; the
// candidate and queue arrays, the kernel rows and the envelopes hold no
// pointer.
func (ws *walkState) release() {
	clear(ws.slots)
	ws.slots = ws.slots[:0]
	walkStates.Put(ws)
}

// at resolves a candidate to its group, query environment and identity.
func (ws *walkState) at(c repCandidate) (*grouping.Group, *lengthEnv, GroupRef) {
	s := &ws.slots[c.slot]
	return s.groups[c.idx], s.env, GroupRef{Length: s.length, Index: int(c.idx)}
}

// progressiveWalk is the resumable state of one search: the candidate
// groups (in its walkState), the accumulator, and how far the member-level
// walk has advanced. The approximate phase produces it, or keyWalk alone
// for a range query; the exact continuation consumes it.
type progressiveWalk struct {
	e    *Engine
	q    []float64
	c    QueryConstraints
	opts Options
	st   *SearchStats

	*walkState
	top     *topK
	refined int
	// bounded records that finishExact has set every unrefined candidate's
	// lower bound and sorted the tail by it: the minimum bound over the
	// unrefined tail is then cands[refined].lower.
	bounded bool
	// raw caches the k-th best's raw bound for finishExact's steps.
	raw rawBounds
	// seq and wave number the snapshots emitted so far.
	seq, wave int
}

// startWalk runs the approximate phase — the best-first browse of the
// candidate groups with the paper's cutoff — in ws and returns the
// resumable state, which lives until ws is released. The accumulator
// content equals the approx-mode answer when it returns.
func (e *Engine) startWalk(ctx context.Context, ws *walkState, q []float64, k int, c QueryConstraints, lengths []int, opts Options, st *SearchStats) (*progressiveWalk, error) {
	w := e.keyWalk(ws, q, newTopK(k, math.Inf(1)), c, lengths, opts, st)
	if err := w.browse(ctx); err != nil {
		return nil, err
	}
	return w, nil
}

// keyWalk starts a walk in ws that offers its matches to top, with every
// candidate group unrefined. It keys every group by LB_Kim without
// dereferencing it: the key comes from q's endpoints and the length's
// endpoint table (grouping.LengthGroups.Ends), bit for bit
// dist.LBKim(q, g.Rep), and the candidates are written into ws's reused
// pointer-free array.
func (e *Engine) keyWalk(ws *walkState, q []float64, top *topK, c QueryConstraints, lengths []int, opts Options, st *SearchStats) *progressiveWalk {
	ws.slots = ws.slots[:0]
	n := 0
	for _, l := range lengths {
		if lg := e.base.ByLength[l]; lg != nil && len(lg.Groups) > 0 {
			ws.slots = append(ws.slots, walkSlot{length: l, groups: lg.Groups})
			n += len(lg.Groups)
		}
	}
	cands := resize(ws.cands, n)
	ws.envs = resize(ws.envs, len(ws.slots))
	ws.groupQ, ws.memberQ, ws.kept = ws.groupQ[:0], ws.memberQ[:0], ws.kept[:0]
	q0, qn := q[0], q[len(q)-1]
	j := 0
	for si := range ws.slots {
		s := &ws.slots[si]
		s.env = &ws.envs[si]
		e.setLengthEnv(s.env, &ws.kern, q, s.length, opts)
		norm, ends := s.env.norm, e.base.ByLength[s.length].Ends
		//onex:nopoll O(1) LB_Kim per group; the browse polls per popped key
		for gi := range s.groups {
			cands[j] = repCandidate{
				lower: dist.LBKimEnds(q0, qn, ends[2*gi], ends[2*gi+1]) / norm,
				slot:  int32(si), idx: int32(gi),
			}
			j++
		}
	}
	ws.cands = cands
	if st != nil {
		st.Groups += len(cands)
	}
	return &progressiveWalk{e: e, q: q, c: c, opts: opts, st: st, walkState: ws, top: top}
}

// The levels of a browse key (repCandidate.lower), each a lower bound on the
// next.
const (
	levelKim   uint8 = iota // LBKim/norm
	levelKeogh              // max(LB_Kim, LB_Keogh)/norm
	levelScore              // the representative's DTW score
)

// browse is the paper's approximate walk: it refines the candidate groups
// in ascending representative score, ties by (length, index), and stops at
// the first representative that scores above the k-th best member, the
// cutoff (a group whose representative scores worse than every collected
// member is taken not to improve the approximate top-k; members can score
// below their representative). It never scores a representative the walk
// cannot reach: the order is incremental distance browsing (Hjaltason and
// Samet, TODS 1999) over the LB cascade, where a group's key
// (repCandidate.lower) rises through three levels, each a lower bound on
// the next:
//
//  1. LBKim/norm, set by startWalk. lbBuckets is this level's cold store:
//     it yields these keys in order, so a group enters the heap only once
//     its level-1 key is popped.
//  2. max(LB_Kim, LB_Keogh)/norm, which waits in keyHeap.
//  3. The representative's DTW score, which waits in keyHeap too.
//
// The least key left is popped next, ordered by (key, unresolved first,
// index): a score is popped only when every other key is above it, so
// popping it refines the true next group, ties included. Popping an
// unresolved key computes its next level.
//
// Each step abandons against rawBound of the cutoff and, while the key is
// within it, of the k-th best representative score (kthTracker), which is
// tight long before k groups are refined. A representative that fails a
// bound b scores strictly above it, so it is re-keyed at the next float
// above b rather than dropped; if that key reaches the head, it is
// evaluated against the cutoff alone. The groups the walk refined end in
// cands[:refined] in visit order. The context is polled per popped key.
func (w *progressiveWalk) browse(ctx context.Context) error {
	cands := w.cands
	w.level = resize(w.level, len(cands))
	level := w.level
	clear(level)
	kth := newKthTracker(w.top.k)
	buckets, heap := &w.buckets, &w.heap
	buckets.reset(cands)
	heap.reset(cands, level)
	var raw rawBounds
	order := w.visit[:0] // refined candidates, in visit order
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The least key left is the next level-1 key or the heap head.
		i, key, cold := buckets.head()
		if len(heap.idx) > 0 {
			h := &cands[heap.idx[0]]
			if !cold || h.lower < key || h.lower == key && level[heap.idx[0]] < levelScore {
				i, key, cold = heap.idx[0], h.lower, false
			}
		} else if !cold {
			break // every group refined
		}
		cutoff := w.top.boundScore()
		if key > cutoff {
			break
		}
		c := &cands[i]
		g, env, ref := w.at(*c)
		if level[i] == levelScore {
			heap.pop()
			if err := w.refineGroup(ctx, g, env, ref); err != nil {
				return err
			}
			order = append(order, i)
			continue
		}
		// Compute the next level, abandoned at b; failing it re-keys the
		// group just above b.
		b := cutoff
		if key <= kth.bound() {
			b = math.Min(b, kth.bound())
		}
		ub := raw.of(b, env.norm)
		c.lower = math.Nextafter(b, math.Inf(1))
		if level[i] == levelKeogh {
			if w.st != nil {
				w.st.RepDTW++
			}
			if d := w.kern.DTWEarlyAbandon(w.q, g.Rep, w.opts.Band, ub); !math.IsInf(d, 1) {
				c.lower, level[i] = d/env.norm, levelScore
				kth.offer(c.lower)
			}
		} else if lb := dist.LBKeogh(g.Rep, env.qU, env.qL, ub); lb <= ub {
			c.lower, level[i] = math.Max(key, lb/env.norm), levelKeogh
		}
		if !cold {
			heap.fix()
			continue
		}
		buckets.pos++
		if c.lower <= cutoff { // a key above the cutoff is never popped
			heap.push(i)
		}
	}
	w.visit = order
	w.refined = len(order)
	w.moveToFront(order)
	return nil
}

// moveToFront moves the candidates at the distinct indices of order to
// cands[:len(order)], in order, with O(len(order)) moves: the other
// candidates that sat there fill the places the moved ones left.
func (ws *walkState) moveToFront(order []int32) {
	cands, r := ws.cands, len(order)
	ws.moved, ws.front = resize(ws.moved, r), resize(ws.front, r)
	moved, front := ws.moved, ws.front // front[j]: cands[j] is itself moved
	clear(front)
	for j, i := range order {
		moved[j] = cands[i]
		if int(i) < r {
			front[i] = true
		}
	}
	j := 0
	for _, i := range order {
		if int(i) >= r {
			for front[j] {
				j++
			}
			cands[i] = cands[j]
			j++
		}
	}
	copy(cands, moved)
}

// groupLower is the envelope lower bound, in raw distance, for every member
// m of g: DTWBanded(q, m, band) >= max(0, LBKeogh(rep) - r), where env
// holds Envelope(q, l, band) and r bounds ED(m, rep) over the members.
// LB_Keogh is a sum of per-position hinges, each 1-Lipschitz in the
// candidate value, so LBKeogh(m) >= LBKeogh(rep) - ED(m, rep) (ED is L1);
// and LBKeogh(m) <= DTWBanded(q, m, band). The §3.1 invariant gives
// r = HalfST(l) for every group; a radius-zero group (radiusZero) has
// r = 0, and the bound is LB_Keogh of its member. It costs one LB_Keogh of
// the representative and no DTW; exclusions only remove members, so they
// keep it valid. The LB_Keogh abandons at ub + r: a result above ub (+Inf
// when abandoned) certifies that no member scores within ub.
func groupLower(g *grouping.Group, env *lengthEnv, r, ub float64) float64 {
	lb := dist.LBKeogh(g.Rep, env.qU, env.qL, ub+r)
	if lb <= r {
		return 0
	}
	return lb - r
}

// radiusZero reports whether g is a radius-zero group: one member, equal
// value for value to the representative, so any bound on the
// representative's score bounds the member's too. The comparison is made
// once, when the group is written (grouping.Group.RepIsFirst), so the walk
// reads one bit and not the dataset. A group that had more members and
// lost them to rollback keeps its first member, and so its bit.
func (e *Engine) radiusZero(g *grouping.Group) bool {
	return len(g.Members) == 1 && g.RepIsFirst
}

// snapshot assembles the current emission. Certification needs a sound
// lower bound for every member not yet scored, which exists once
// finishExact has set the certified bounds: before that (the approximate
// snapshot) nothing is certified.
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
		// A member not yet scored waits in the member queue, in a queued
		// group or in the unexpanded tail, whose minimum bound is its
		// head's (it is sorted); every other member scores above a k-th
		// best, so above every current match.
		minLower := min(w.groupQ.headKey(), w.memberQ.headKey())
		if w.refined < len(w.cands) {
			minLower = min(minLower, w.cands[w.refined].lower)
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
		GroupsRemaining: len(w.cands) - w.refined + len(w.groupQ),
		Wave:            w.wave,
		Final:           final,
	}
	w.seq++
	return s
}

// finishExact resumes the walk to a certified-exact answer. It bounds every
// group the approximate phase left unrefined (boundTail) — every group, for
// a range query, which has no approximate phase — then scores the
// survivors' members best-first across groups — incremental distance
// browsing (Hjaltason and Samet, TODS 1999) one level below the browse's —
// so a member's DTW runs only once no other member can have a lower bound,
// against a k-th best as tight as the walk can have by then. The bound
// throughout is the sink's (topK.boundScore): the k-th best once it holds
// k matches, and until then its ceiling, +Inf for a top-k query and
// MaxDist for a range query. Each step takes the least key of three
// ordered sources (on a tie, the first):
//
//  1. The sorted tail's head, keyed by its certified bound: expand
//     counts the group refined, keeps its members that pass LB_Kim and
//     queues it in groupQ.
//  2. groupQ's head: queueMembers runs LB_Keogh on the group's kept
//     members against the current k-th best and queues the survivors in
//     memberQ.
//  3. memberQ's head: scoreMember runs its early-abandoning DTW and offers
//     the result to the top-k.
//
// Every queued key is at least the key popped to queue it, so keys are
// popped in ascending order, and the walk stops at the first one above
// the bound: every member left is bounded above it. The unexpanded
// tail is then certified-skipped. After every exactWave groupQ pops, and
// after the last step, emit (when non-nil) receives a snapshot.
func (w *progressiveWalk) finishExact(ctx context.Context, emit ProgressFunc) error {
	if err := w.boundTail(ctx); err != nil {
		return err
	}
	inWave, stepped := 0, false
	closeWave := func() {
		if stepped && emit != nil {
			w.wave++
			emit(w.snapshot(false))
		}
		inWave, stepped = 0, false
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		const none, tail, groups, members = 0, 1, 2, 3
		src, key := none, math.Inf(1)
		if w.refined < len(w.cands) {
			src, key = tail, w.cands[w.refined].lower
		}
		if len(w.groupQ) > 0 && (src == none || w.groupQ[0].key < key) {
			src, key = groups, w.groupQ[0].key
		}
		if len(w.memberQ) > 0 && (src == none || w.memberQ[0].key < key) {
			src, key = members, w.memberQ[0].key
		}
		if src == none || key > w.top.boundScore() {
			break
		}
		stepped = true
		switch src {
		case tail:
			if err := w.expand(ctx); err != nil {
				return err
			}
		case groups:
			if err := w.queueMembers(ctx); err != nil {
				return err
			}
			if inWave++; inWave == exactWave {
				closeWave()
			}
		default:
			w.scoreMember(w.memberQ.pop())
		}
	}
	// Every group left provably cannot improve the top-k.
	if w.st != nil {
		w.st.GroupsLBPruned += len(w.cands) - w.refined
	}
	w.refined = len(w.cands)
	w.groupQ, w.memberQ = w.groupQ[:0], w.memberQ[:0]
	closeWave()
	return nil
}

// expand takes the tail's head group: it counts the group refined, keeps
// (appends to kept, as one run) the members that are not excluded and
// whose LB_Kim is within the k-th best, and queues the group, keyed by the
// least LB_Kim/norm kept raised to the group's bound, unless it kept none.
// The scan reads two values a member, so the group's LB_Keogh pass waits
// until the group's key is the least left, when the k-th best is tighter.
func (w *progressiveWalk) expand(ctx context.Context) error {
	ci := int32(w.refined)
	w.refined++
	cand := w.cands[ci]
	g, env, _ := w.at(cand)
	if w.st != nil {
		w.st.GroupsRefined++
		w.st.Members += len(g.Members)
	}
	ub := w.raw.of(w.top.boundScore(), env.norm)
	start, least := int32(len(w.kept)), math.Inf(1)
	for mi, m := range g.Members {
		if mi > 0 && mi%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if w.c.excludes(m) {
			continue
		}
		if kim := dist.LBKim(w.q, m.Values(w.e.ds)); kim <= ub {
			w.kept = append(w.kept, int32(mi))
			least = min(least, kim)
		}
	}
	if int(start) < len(w.kept) {
		w.kept = append(w.kept, -1)
		w.groupQ.push(walkEntry{key: max(cand.lower, least/env.norm), cand: ci, member: start})
	}
	return nil
}

// queueMembers takes groupQ's head group and queues each member it kept
// whose LB_Kim and LB_Keogh pass the current k-th best, keyed by
// max(LB_Kim, LB_Keogh)/norm raised to the group's key. A sink with k = 0
// (a range query's) has a bound that never tightens, so the order cannot
// change which members get a DTW: each survivor is scored at once.
func (w *progressiveWalk) queueMembers(ctx context.Context) error {
	ge := w.groupQ.pop()
	g, env, _ := w.at(w.cands[ge.cand])
	ub := w.raw.of(w.top.boundScore(), env.norm)
	for i, mi := range w.kept[ge.member:] {
		if mi < 0 {
			break // the end of the group's run
		}
		if i > 0 && i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		mv := g.Members[mi].Values(w.e.ds)
		kim := dist.LBKim(w.q, mv)
		if kim > ub {
			continue
		}
		lb := dist.LBKeogh(mv, env.qU, env.qL, ub)
		if lb > ub {
			continue
		}
		me := walkEntry{key: max(max(kim, lb)/env.norm, ge.key), cand: ge.cand, member: mi}
		if w.top.k == 0 {
			w.scoreMember(me)
			continue
		}
		w.memberQ.push(me)
	}
	return nil
}

// scoreMember offers the early-abandoning DTW of member me, run on the
// walk's rows against the current k-th best, to the top-k.
func (w *progressiveWalk) scoreMember(me walkEntry) {
	g, env, ref := w.at(w.cands[me.cand])
	m := g.Members[me.member]
	mv := m.Values(w.e.ds)
	if w.st != nil {
		w.st.MemberDTW++
	}
	d := w.kern.DTWEarlyAbandon(w.q, mv, w.opts.Band, w.raw.of(w.top.boundScore(), env.norm))
	if math.IsInf(d, 1) {
		return
	}
	w.top.offer(Match{Ref: m, Values: mv, Dist: d, Score: d / env.norm, Group: ref})
}

// walkEntry is one entry of finishExact's queues: a group, by its index
// in the walk's candidate array, whose member field is where its run of
// kept members starts in kept; or one member of a group, by candidate and
// member index. It is keyed by a lower bound on the score of every member
// it stands for. 16 bytes and no pointer.
type walkEntry struct {
	key          float64
	cand, member int32
}

// entryBefore is the queue order: by key, then candidate index, then
// member index. It is total, so the walk's steps, and its counts, do not
// depend on how the heap arranges equal keys.
func entryBefore(a, b walkEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.cand != b.cand {
		return a.cand < b.cand
	}
	return a.member < b.member
}

// entryHeap is a binary min-heap of walkEntry under entryBefore.
type entryHeap []walkEntry

// headKey is the least key queued, or +Inf when the heap is empty.
func (h entryHeap) headKey() float64 {
	if len(h) == 0 {
		return math.Inf(1)
	}
	return h[0].key
}

func (h *entryHeap) push(e walkEntry) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		p := (j - 1) / 2
		if !entryBefore(q[j], q[p]) {
			break
		}
		q[j], q[p] = q[p], q[j]
		j = p
	}
}

func (h *entryHeap) pop() walkEntry {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q = q[:last]
	*h = q
	for j := 0; ; {
		least := j
		if c := 2*j + 1; c < len(q) && entryBefore(q[c], q[least]) {
			least = c
		}
		if c := 2*j + 2; c < len(q) && entryBefore(q[c], q[least]) {
			least = c
		}
		if least == j {
			return top
		}
		q[j], q[least] = q[least], q[j]
		j = least
	}
}

// boundTail sets the certified lower bound of every unrefined candidate,
// which depends only on the query and the bound the walk has reached: the
// k-th best after the approximate phase, or a range query's ceiling. A
// radius-zero group, told by its stored bit without reading the dataset
// (radiusZero), keeps its key when the key is above the bound: LB_Kim,
// LB_Keogh, the representative's score or the float just above a bound it
// failed, each at most its member's score. After the browse every
// unrefined key is above the cutoff, or the browse would have refined the
// group; a range query, which has no browse, bounds a radius-zero group
// whose LB_Kim key is within its ceiling by groupLower with radius 0. Every
// other group gets groupLower with radius HalfST(l). groupLower abandons
// at rawBound of the bound, so a member scoring exactly a range query's
// ceiling is kept. Groups whose bound already exceeds it move in front of
// the tail as certified-skipped — counted once, here — and the survivors
// are sorted by (bound, length, index).
func (w *progressiveWalk) boundTail(ctx context.Context) error {
	worst := w.top.boundScore()
	tail := w.cands[w.refined:]
	for i := range tail {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		cand := &tail[i]
		g, env, _ := w.at(*cand)
		r := env.half
		if w.e.radiusZero(g) {
			if cand.lower > worst {
				continue
			}
			r = 0
		}
		cand.lower = groupLower(g, env, r, w.raw.of(worst, env.norm)) / env.norm
	}
	// Partition with two cursors, swapping only a survivor that sits before
	// a skipped candidate: survivors are few, so few candidates move.
	skipped := func(c *repCandidate) bool { return c.lower > worst }
	lo, hi := 0, len(tail)
	for {
		for lo < hi && skipped(&tail[lo]) {
			lo++
		}
		for lo < hi && !skipped(&tail[hi-1]) {
			hi--
		}
		if lo == hi {
			break
		}
		tail[lo], tail[hi-1] = tail[hi-1], tail[lo]
	}
	if w.st != nil {
		w.st.GroupsLBPruned += lo
	}
	w.refined += lo
	slices.SortFunc(w.cands[w.refined:], candidateOrder)
	w.bounded = true
	return nil
}

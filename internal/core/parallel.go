package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/grouping"
)

// Parallel execution layer for the online search path. Every group scan the
// engine runs — representative scoring, member refinement, range scans, and
// the seasonal / common-pattern mines — can shard its work across a bounded
// worker pool, sized per call by Options.Workers (and its analytics
// equivalents).
//
// The determinism contract, enforced by tests:
//
//   - Workers = 1 takes the exact serial code paths, so results and
//     statistics are identical to a single-threaded engine.
//   - The result set (matches, patterns, sweep counts) is identical at
//     every worker count. Accumulators break score ties by subsequence
//     identity, so even the order is stable.
//   - Groups, GroupsRefined, and Members are identical at every worker
//     count, and so is a top-k search's GroupsLBPruned (Groups minus
//     GroupsRefined, in approx and exact mode alike). Only the DTW counts
//     (RepDTW, MemberDTW) can shift at Workers > 1: the shared best-so-far
//     bound tightens in scheduling order, which decides which
//     representatives the scoring pass prunes and the approximate walk
//     later resolves.
//
// Cancellation: each worker polls ctx.Err() once per group it scores and
// every ctxCheckStride members it refines, so a cancelled parallel scan
// aborts within one pruning round per worker.

const (
	// minParallelGroups is the smallest group-scan fan-out worth a worker
	// pool; below it the dispatch overhead dwarfs the per-group work and the
	// serial path is used regardless of Options.Workers.
	minParallelGroups = 64
	// minParallelMembers is the smallest member scan worth sharding across
	// workers inside one group's refinement.
	minParallelMembers = 256
	// exactWave is how many surviving groups one exact-mode refinement wave
	// holds. It is a constant — never derived from the worker count — so
	// the certified-bound re-check points, and with them the refined set,
	// are identical at every worker count.
	exactWave = 16
)

// resolveWorkers maps a Workers knob to an effective pool size for n work
// items: values < 1 select GOMAXPROCS, and the pool never exceeds the item
// count.
func resolveWorkers(requested, n int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runWorkers runs fn(0) … fn(workers-1) concurrently and returns the first
// error by worker index. Workers observe cancellation through their own
// ctx polling, so a failed sibling never leaves the pool stuck.
func runWorkers(workers int, fn func(w int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sharedKth is the cross-worker k-th-best representative score: a mutex-
// guarded kthTracker fed by every worker, with the current bound mirrored
// into an atomic so the hot pruning path reads it lock-free. The bound is
// monotonically non-increasing and always >= the final global k-th best,
// so early-abandon pruning against it stays sound while tightening across
// workers. Offers only happen for finite (unpruned) scores, so contention
// stays far below the group count.
type sharedKth struct {
	mu    sync.Mutex
	kth   *kthTracker
	bound atomic.Uint64 // float bits of the current k-th best score
}

func newSharedKth(k int) *sharedKth {
	s := &sharedKth{kth: newKthTracker(k)}
	s.bound.Store(math.Float64bits(math.Inf(1)))
	return s
}

func (s *sharedKth) load() float64 { return math.Float64frombits(s.bound.Load()) }

func (s *sharedKth) offer(v float64) {
	s.mu.Lock()
	s.kth.offer(v)
	s.bound.Store(math.Float64bits(s.kth.bound()))
	s.mu.Unlock()
}

// sharedTopK guards a topK for concurrent offers during parallel member
// refinement. The worst-score bound is mirrored into an atomic so the hot
// LB cascade reads it without taking the mutex; it is always >= the final
// worst score, so pruning against a stale value stays sound.
type sharedTopK struct {
	mu    sync.Mutex
	top   *topK
	worst atomic.Uint64 // score bits; +Inf until the accumulator fills
}

func newSharedTopK(top *topK) *sharedTopK {
	s := &sharedTopK{top: top}
	w := math.Inf(1)
	if top.full() {
		w = top.worst().Score
	}
	s.worst.Store(math.Float64bits(w))
	return s
}

func (s *sharedTopK) boundScore() float64 { return math.Float64frombits(s.worst.Load()) }

func (s *sharedTopK) offer(m Match) {
	s.mu.Lock()
	s.top.offer(m)
	if s.top.full() {
		s.worst.Store(math.Float64bits(s.top.worst().Score))
	}
	s.mu.Unlock()
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

// repScoreJob is one group to score plus its length's shared precomputation.
type repScoreJob struct {
	ref GroupRef
	g   *grouping.Group
	env *lengthEnv
}

// flattenGroups lists every candidate group of the given lengths in the
// deterministic serial scan order, computing the query envelope once per
// length.
func (e *Engine) flattenGroups(q []float64, lengths []int, opts Options) []repScoreJob {
	n := 0
	for _, l := range lengths {
		n += len(e.base.GroupsOfLength(l))
	}
	jobs := make([]repScoreJob, 0, n)
	for _, l := range lengths {
		groups := e.base.GroupsOfLength(l)
		if len(groups) == 0 {
			continue
		}
		env := e.lengthEnvFor(q, l, opts)
		//onex:nopoll O(1) job enumeration per group; the scoring pass that consumes the jobs polls per group
		for gi, g := range groups {
			jobs = append(jobs, repScoreJob{ref: GroupRef{Length: l, Index: gi}, g: g, env: env})
		}
	}
	return jobs
}

// scoreJob runs the LB_Kim -> LB_Keogh -> early-abandon-DTW cascade for one
// representative against the raw-distance bound ub, updating st (which may
// be a worker-local accumulator). A pruned or abandoned representative
// returns +Inf, and its DTW provably exceeds ub. Whether its group counts
// as pruned is decided once, by the walk: every group it leaves unrefined
// (kbestApprox, finishExact).
func scoreJob(q []float64, job repScoreJob, ub float64, band int, st *SearchStats) (repDist float64) {
	if st != nil {
		st.Groups++
	}
	if dist.LBKim(q, job.g.Rep) > ub {
		return math.Inf(1)
	}
	if dist.LBKeogh(job.g.Rep, job.env.qU, job.env.qL, ub) > ub {
		return math.Inf(1)
	}
	if st != nil {
		st.RepDTW++
	}
	return dist.DTWEarlyAbandon(q, job.g.Rep, band, ub)
}

// scoreRepsParallel shards the group list across a worker pool. Each worker
// keeps local statistics, merged at the barrier; a shared atomic
// best-so-far bound (the global k-th best score seen by any worker) lets
// early-abandon pruning tighten across workers. Worker w scores jobs w,
// w+workers, w+2*workers, … and the shards are stitched back by index, so
// the returned candidate order matches the serial scan exactly.
func (e *Engine) scoreRepsParallel(ctx context.Context, q []float64, k int, jobs []repScoreJob, opts Options, st *SearchStats, workers int) ([]repCandidate, error) {
	shared := newSharedKth(k) // normalized score units
	locals := make([]SearchStats, workers)
	// Workers score interleaved shards (job i -> worker i % workers) for
	// load balance, but accumulate into worker-local buffers — writing
	// adjacent entries of one shared slice from different cores would
	// false-share cache lines on every job.
	buffers := make([][]repCandidate, workers)
	err := runWorkers(workers, func(w int) error {
		var local SearchStats
		var raw rawBounds
		buf := make([]repCandidate, 0, (len(jobs)+workers-1)/workers)
		for i := w; i < len(jobs); i += workers {
			if err := ctx.Err(); err != nil {
				locals[w], buffers[w] = local, buf
				return err
			}
			job := jobs[i]
			b := shared.load()
			cand := scoredCandidate(job, scoreJob(q, job, raw.of(b, job.env.norm), opts.Band, &local), b)
			if !math.IsInf(cand.repDist, 1) {
				shared.offer(cand.repScore)
			}
			buf = append(buf, cand)
		}
		locals[w], buffers[w] = local, buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st != nil {
		for _, local := range locals {
			st.add(local)
		}
	}
	// Stitch the shards back into the serial scan order.
	cands := make([]repCandidate, len(jobs))
	for w, buf := range buffers {
		for j, cand := range buf {
			cands[w+j*workers] = cand
		}
	}
	return cands, nil
}

// refine dispatches one group's member scan to the serial or parallel
// implementation. The choice depends only on the member count and the
// Workers knob, never on scheduling, so the refined set stays deterministic.
func (e *Engine) refine(ctx context.Context, q []float64, cand repCandidate, c QueryConstraints, top *topK, opts Options, st *SearchStats) error {
	workers := resolveWorkers(opts.Workers, len(cand.g.Members))
	if workers <= 1 || len(cand.g.Members) < minParallelMembers {
		return e.refineGroup(ctx, q, cand, c, top, opts, st)
	}
	return e.refineGroupParallel(ctx, q, cand, c, top, opts, st, workers)
}

// refineGroupParallel shards one group's members across the worker pool,
// offering improvements into a mutex-guarded topK. Workers prune against
// the accumulator's current worst score (always >= the final worst, so no
// true top-k member is ever lost), and every surviving member is offered
// with deterministic tie-breaking — the final contents match the serial
// scan exactly.
func (e *Engine) refineGroupParallel(ctx context.Context, q []float64, cand repCandidate, c QueryConstraints, top *topK, opts Options, st *SearchStats, workers int) error {
	qU, qL, norm := cand.env.qU, cand.env.qL, cand.env.norm
	if st != nil {
		st.GroupsRefined++
		st.Members += len(cand.g.Members)
	}
	members := cand.g.Members
	shared := newSharedTopK(top)
	localDTW := make([]int, workers)
	err := runWorkers(workers, func(w int) error {
		seen, dtws := 0, 0
		defer func() { localDTW[w] = dtws }()
		for mi := w; mi < len(members); mi += workers {
			if seen%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			seen++
			m := members[mi]
			if c.excludes(m) {
				continue
			}
			mv := m.Values(e.ds)
			ub := shared.boundScore() * norm // raw-distance bound
			if dist.LBKim(q, mv) > ub {
				continue
			}
			if dist.LBKeogh(mv, qU, qL, ub) > ub {
				continue
			}
			dtws++
			d := dist.DTWEarlyAbandon(q, mv, opts.Band, ub)
			if math.IsInf(d, 1) {
				continue
			}
			shared.offer(Match{
				Ref:    m,
				Values: mv,
				Dist:   d,
				Score:  d / norm,
				Group:  cand.ref,
			})
		}
		return nil
	})
	if st != nil {
		for _, n := range localDTW {
			st.MemberDTW += n
		}
	}
	return err
}

// scanGroups runs fn over every job — serially, or sharded across a worker
// pool (job i -> worker i % workers) when the list is large — and collects
// the accepted results in job order, so the output never depends on
// scheduling. fn's stats accumulator is the caller's in the serial case
// and worker-local (merged at the barrier) in the parallel case; each job
// is preceded by a ctx poll, so cancellation aborts within one round per
// worker. This is the shared scaffolding of the range, seasonal, and
// common-pattern scans, whose per-group work needs no cross-group state.
func scanGroups[J, R any](ctx context.Context, requestedWorkers int, jobs []J, st *SearchStats, fn func(J, *SearchStats) (R, bool, error)) ([]R, error) {
	workers := resolveWorkers(requestedWorkers, len(jobs))
	if workers <= 1 || len(jobs) < minParallelGroups {
		var out []R
		for _, j := range jobs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, ok, err := fn(j, st)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, r)
			}
		}
		return out, nil
	}
	found := make([]*R, len(jobs))
	locals := make([]SearchStats, workers)
	err := runWorkers(workers, func(w int) error {
		var local SearchStats // worker-local to avoid false sharing
		defer func() { locals[w] = local }()
		for i := w; i < len(jobs); i += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			r, ok, err := fn(jobs[i], &local)
			if err != nil {
				return err
			}
			if ok {
				found[i] = &r
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st != nil {
		for _, local := range locals {
			st.add(local)
		}
	}
	out := make([]R, 0, len(found))
	for _, r := range found {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out, nil
}

// refineWaveParallel fans one exact-mode wave of group refinements across
// the worker pool (group i -> worker i % workers), all offering into one
// mutex-guarded topK. Every group in the wave is fully scanned, so the
// refined set — fixed by the caller — does not depend on scheduling; the
// shared accumulator only tightens the member-level pruning bound.
func (e *Engine) refineWaveParallel(ctx context.Context, q []float64, wave []repCandidate, c QueryConstraints, top *topK, opts Options, st *SearchStats, workers int) error {
	if workers > len(wave) {
		workers = len(wave)
	}
	shared := newSharedTopK(top)
	locals := make([]SearchStats, workers)
	err := runWorkers(workers, func(w int) error {
		var local SearchStats // worker-local to avoid false sharing
		defer func() { locals[w] = local }()
		for i := w; i < len(wave); i += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := e.refineGroup(ctx, q, wave[i], c, shared, opts, &local); err != nil {
				return err
			}
		}
		return nil
	})
	if st != nil {
		for _, local := range locals {
			st.add(local)
		}
	}
	return err
}

// add accumulates another stats block (worker-local merge).
func (s *SearchStats) add(o SearchStats) {
	s.Groups += o.Groups
	s.GroupsLBPruned += o.GroupsLBPruned
	s.RepDTW += o.RepDTW
	s.GroupsRefined += o.GroupsRefined
	s.Members += o.Members
	s.MemberDTW += o.MemberDTW
}

package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
)

// Parallel execution layer for the online search path. The member scans the
// engine runs — member refinement, exact-mode waves, range scans, and the
// seasonal / common-pattern mines — can shard their work across a bounded
// worker pool, sized per call by Options.Workers (and its analytics
// equivalents). Representative scoring is serial at every setting: its
// best-first pass (search.go scoreRepresentatives) visits representatives
// in lower-bound order, which a shard cannot share.
//
// The determinism contract, enforced by tests:
//
//   - Workers = 1 takes the exact serial code paths, so results and
//     statistics are identical to a single-threaded engine.
//   - The result set (matches, patterns, sweep counts) is identical at
//     every worker count. Accumulators break score ties by subsequence
//     identity, so even the order is stable.
//   - Groups, GroupsRefined, Members and RepDTW are identical at every
//     worker count, and so is a top-k search's GroupsLBPruned (Groups minus
//     GroupsRefined, in approx and exact mode alike). Only MemberDTW can
//     shift at Workers > 1: a shared accumulator's bound tightens in
//     scheduling order, which decides which members a parallel scan
//     abandons before their DTW.
//
// Cancellation: each worker polls ctx.Err() once per group it scans and
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
		var raw rawBounds
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
			ub := raw.of(shared.boundScore(), norm)
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

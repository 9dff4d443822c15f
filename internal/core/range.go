package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/grouping"
)

// RangeOptions configures a range scan (FindOptions.Range, and the
// similarity sweep built on it).
type RangeOptions struct {
	// MaxDist is the inclusive score threshold (same units as Match.Score:
	// raw DTW, or length-normalized DTW when the engine ranks normalized).
	MaxDist float64
	// Constraints narrow the candidate set.
	Constraints QueryConstraints
	// Limit caps the number of returned matches (0 = unlimited).
	Limit int
}

// rangeJob is one group to scan plus its length's shared precomputation:
// the query envelope, the raw-distance threshold, and the transfer-bound
// slack. rawMax is rawBound(MaxDist, norm), the largest raw distance whose
// score is within MaxDist: the product MaxDist*norm can round below the
// distance of a match scoring exactly MaxDist.
type rangeJob struct {
	ref    GroupRef
	g      *grouping.Group
	env    *lengthEnv
	rawMax float64
	slack  float64
}

// withinThreshold returns every indexed subsequence whose DTW score from q
// is at most MaxDist, ordered best-first: the paper's §3.3 range flavour of
// similarity exploration ("showing the changes in the similarity between
// sequences for varying parameters"). The search is exact regardless of
// callOpts.Mode: a group is skipped only when a certified bound — the
// representative's envelope bound (groupLower, with radius 0 on a
// radius-zero group) or the transfer bound — proves every member lies
// beyond the threshold. st, when non-nil, accumulates the search
// statistics. The scan checks the context once per group and every
// ctxCheckStride members, so cancelled range scans abort within one
// pruning round.
func (e *Engine) withinThreshold(ctx context.Context, q []float64, opts RangeOptions, callOpts Options, st *SearchStats) ([]Match, error) {
	if err := checkQuery(q); err != nil {
		return nil, err
	}
	if opts.MaxDist < 0 || math.IsNaN(opts.MaxDist) {
		return nil, fmt.Errorf("core: WithinThreshold: MaxDist %g must be non-negative", opts.MaxDist)
	}
	release, err := e.ds.Pin()
	if err != nil {
		return nil, fmt.Errorf("core: WithinThreshold: %w", err)
	}
	defer release()
	lengths := e.candidateLengths(opts.Constraints)
	if len(lengths) == 0 {
		return nil, ErrNoMatch
	}
	var jobs []rangeJob
	for _, l := range lengths {
		groups := e.base.GroupsOfLength(l)
		if len(groups) == 0 {
			continue
		}
		env := e.lengthEnvFor(q, l, callOpts)
		w := dist.EffectiveBand(len(q), l, callOpts.Band)
		slack := float64(2*w+1) * env.half
		//onex:nopoll O(1) job enumeration per group; the scan that follows polls per group and per 64 members
		for gi, g := range groups {
			jobs = append(jobs, rangeJob{
				ref:    GroupRef{Length: l, Index: gi},
				g:      g,
				env:    env,
				rawMax: rawBound(opts.MaxDist, env.norm),
				slack:  slack,
			})
		}
	}

	perGroup, err := scanGroups(ctx, jobs,
		func(job rangeJob) ([]Match, bool, error) {
			ms, err := e.rangeScanGroup(ctx, q, job, opts.Constraints, callOpts, st)
			return ms, len(ms) > 0, err
		})
	if err != nil {
		return nil, err
	}
	var out []Match
	//onex:nopoll merging already-scanned per-group results; scanGroups polled per group and per 64 members
	for _, ms := range perGroup {
		out = append(out, ms...)
	}
	sort.Slice(out, func(i, j int) bool { return matchBefore(out[i], out[j]) })
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	// Paths only for the returned set.
	return e.finishMatches(q, out, callOpts), nil
}

// rangeScanGroup applies the certified group skips and, when the group
// survives, scans its members against the fixed threshold, returning every
// in-range match.
func (e *Engine) rangeScanGroup(ctx context.Context, q []float64, job rangeJob, c QueryConstraints, callOpts Options, st *SearchStats) ([]Match, error) {
	if st != nil {
		st.Groups++
	}
	// Certified skips, cheapest first, both depending only on the fixed
	// threshold: the envelope bound (groupLower, one LB_Keogh), then the
	// transfer bound — if DTW(q, rep) - slack > rawMax every member is
	// provably outside the threshold. A radius-zero group is bounded with
	// radius 0, by LB_Keogh of its member, and skips the transfer bound: its
	// representative's DTW is the member's own.
	zero := e.radiusZero(job.g)
	r := job.env.half
	if zero {
		r = 0
	}
	if groupLower(job.g, job.env, r, job.rawMax) > job.rawMax {
		if st != nil {
			st.GroupsLBPruned++
		}
		return nil, nil
	}
	if !zero {
		if st != nil {
			st.RepDTW++
		}
		if math.IsInf(dist.DTWEarlyAbandon(q, job.g.Rep, callOpts.Band, job.rawMax+job.slack), 1) {
			if st != nil {
				st.GroupsLBPruned++
			}
			return nil, nil
		}
	}
	if st != nil {
		st.GroupsRefined++
		st.Members += len(job.g.Members)
	}
	var out []Match
	for mi, m := range job.g.Members {
		if mi%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if c.excludes(m) {
			continue
		}
		mv := m.Values(e.ds)
		if dist.LBKim(q, mv) > job.rawMax {
			continue
		}
		if dist.LBKeogh(mv, job.env.qU, job.env.qL, job.rawMax) > job.rawMax {
			continue
		}
		if st != nil {
			st.MemberDTW++
		}
		d := dist.DTWEarlyAbandon(q, mv, callOpts.Band, job.rawMax)
		// Early abandoning may return a finite value above the bound when no
		// full DP row exceeded it; filter explicitly.
		if math.IsInf(d, 1) || d > job.rawMax {
			continue
		}
		out = append(out, Match{
			Ref:    m,
			Values: mv,
			Dist:   d,
			Score:  d / job.env.norm,
			Group:  job.ref,
		})
	}
	return out, nil
}

package dist

import "math"

// This file holds the two cheap lower bounds of the pruning cascade
// (LBKim, LBKeogh); Envelope in envelope.go builds the band envelope
// LBKeogh tests against, and the DTW variants in dtw.go are the exact
// distances the bounds prune for.

// LBKim is the O(1) endpoint lower bound |q[0]-c[0]| + |q[last]-c[last]|.
// Every warping path aligns the two first points and the two last points,
// and for equal lengths the identity alignment does too, so LBKim lower
// bounds both DTW(q, c) (any band, any lengths) and ED(q, c). It is the
// cheapest stage of the pruning cascade.
func LBKim(q, c []float64) float64 {
	if len(q) == 0 || len(c) == 0 {
		return 0
	}
	if len(q) == 1 && len(c) == 1 {
		// A single-point pair is one path step; counting it twice would
		// overshoot the bound.
		d0 := q[0] - c[0]
		if d0 < 0 {
			d0 = -d0
		}
		return d0
	}
	return LBKimEnds(q[0], q[len(q)-1], c[0], c[len(c)-1])
}

// LBKimEnds is LBKim from the four endpoints alone: for len(q) >= 2 (or
// len(c) >= 2), LBKimEnds(q[0], q[last], c[0], c[last]) equals LBKim(q, c)
// bit for bit, so a scan that keeps only a candidate's endpoints (the
// engine's per-length endpoint table) keys it without touching its values.
func LBKimEnds(q0, qn, c0, cn float64) float64 {
	d0 := q0 - c0
	if d0 < 0 {
		d0 = -d0
	}
	dn := qn - cn
	if dn < 0 {
		dn = -dn
	}
	return d0 + dn
}

// LBKeogh evaluates the Keogh lower bound of a candidate c against a
// query envelope from Envelope(q, len(c), band): the L1 hinge sum of how
// far each c[j] falls outside [lower[j], upper[j]]. The result lower
// bounds DTWBanded(q, c, band) — every candidate position is aligned with
// at least one in-band query position, whose value lies inside the
// envelope (or equals it exactly at the pinned corners).
//
// The sum abandons early: as soon as it exceeds ub the function returns
// +Inf, certifying LBKeogh > ub without touching the remaining positions.
// It panics if the three slices differ in length.
func LBKeogh(c, upper, lower []float64, ub float64) float64 {
	if len(c) != len(upper) || len(c) != len(lower) {
		panic("dist: LBKeogh: candidate and envelope lengths differ")
	}
	sum := 0.0
	for j, v := range c {
		if v > upper[j] {
			sum += v - upper[j]
		} else if v < lower[j] {
			sum += lower[j] - v
		}
		if sum > ub {
			return math.Inf(1)
		}
	}
	return sum
}

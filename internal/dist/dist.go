// Package dist implements the distance substrate of the ONEX engine: the
// two-distance design of the paper (Neamtu et al., SIGMOD 2017) where an
// inexpensive pointwise distance compacts the data offline and banded DTW
// with a cascade of lower bounds explores it online.
//
// # Cost convention
//
// Every distance in this package uses the L1 point cost |a-b| and reports
// the plain sum of point costs (no square root):
//
//   - ED(a, b) = Σ |a_i - b_i| over equal-length series — the compaction
//     distance the ONEX base is built with. The name keeps the paper's
//     "ED"; the L1 form is what makes the endpoint bound LBKim and the
//     engine's group-transfer bound (DTW(q,s) ≤ DTW(q,rep) + μ·ED(rep,s),
//     μ = path multiplicity) exact term-by-term.
//   - DTW(a, b) = min over warping paths of Σ |a_i - b_j|.
//
// DTWSq and DTWSqEarlyAbandon are the exceptions: they use the squared
// point cost (a-b)², matching the UCR-Suite convention that
// internal/ucrsuite's z-normalized mode is compared against.
//
// # Pruning cascade
//
// The bounds form a cascade, cheapest first, each one a lower bound on the
// next (see Example_pruningCascade; the first inequality needs a candidate
// of at least two points, see Envelope):
//
//	LBKim ≤ LBKeogh ≤ DTWBanded
//
// LBKim costs O(1), LBKeogh costs O(n) against a precomputed query
// envelope, and DTWBanded costs O(n·w) for band width w. A candidate is
// compared against the current best-so-far distance after each stage and
// dropped as soon as any bound exceeds it; EDEarlyAbandon, LBKeogh and the
// DTW*EarlyAbandon variants additionally abandon mid-computation, returning
// +Inf, once their running sum (for DTW: a full DP row minimum) can no
// longer come in under the caller's upper bound.
//
// All functions are allocation-light: the DTW dynamic program runs on two
// rolling rows (no O(n·m) matrix), and only DTWPath — called on final
// results only, for the demo's warped-points view — keeps every row, each
// row's band window only, to recover the alignment. A caller-owned
// Workspace holds the rows and Envelope's deques, so a search that keeps
// one runs its DTWs and envelopes without allocating.
package dist

import "math"

// ED returns the L1 ("ONEX Euclidean") distance Σ|a_i - b_i| between two
// equal-length series. It panics if the lengths differ: callers compare
// same-length windows by construction, so a mismatch is a programming
// error, not a data condition.
func ED(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("dist: ED: length mismatch")
	}
	sum := 0.0
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// EDEarlyAbandon is ED with early abandoning: it returns +Inf as soon as
// the running sum exceeds ub, and the exact distance otherwise. Point
// costs are non-negative, so a partial sum above ub certifies ED(a,b) > ub.
func EDEarlyAbandon(a, b []float64, ub float64) float64 {
	if len(a) != len(b) {
		panic("dist: EDEarlyAbandon: length mismatch")
	}
	sum := 0.0
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		sum += d
		if sum > ub {
			return math.Inf(1)
		}
	}
	return sum
}

// EffectiveBand returns the Sakoe-Chiba width actually used when comparing
// series of lengths lenQ and lenC under the configured band. A negative
// band means unconstrained and yields max(lenQ, lenC), which no |i-j| can
// exceed. A non-negative band is widened to at least |lenQ - lenC|, the
// minimum width for which a warping path between the two lengths exists.
// The same widening is applied by every DTW variant and by Envelope, so
// bounds and distances always agree on the constraint.
func EffectiveBand(lenQ, lenC, band int) int {
	maxLen := lenQ
	if lenC > maxLen {
		maxLen = lenC
	}
	if band < 0 {
		return maxLen
	}
	w := band
	d := lenQ - lenC
	if d < 0 {
		d = -d
	}
	if w < d {
		w = d
	}
	return w
}

// Resample linearly interpolates values onto n evenly spaced positions,
// preserving the first and last points. It is the length normalization
// used by the embedding index (references stored at a pivot length) and
// the visualization fallback for unequal-length comparisons. n <= 0
// returns nil; an empty input returns n zeros; a single value repeats.
func Resample(values []float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	switch len(values) {
	case 0:
		return out
	case 1:
		for i := range out {
			out[i] = values[0]
		}
		return out
	}
	if n == 1 {
		out[0] = values[0]
		return out
	}
	scale := float64(len(values)-1) / float64(n-1)
	for i := range out {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(values)-1 {
			out[i] = values[len(values)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = values[lo] + frac*(values[lo+1]-values[lo])
	}
	return out
}

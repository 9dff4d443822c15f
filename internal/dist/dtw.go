package dist

import "math"

// DTW returns the unconstrained L1 dynamic-time-warping distance: the
// minimum over all warping paths of the summed point costs |a_i - b_j|.
// Equivalent to DTWBanded(a, b, -1).
func DTW(a, b []float64) float64 {
	return dtwCore(a, b, -1, math.Inf(1), false, nil)
}

// DTWBanded is DTW under a Sakoe-Chiba band: paths may only visit cells
// with |i-j| <= EffectiveBand(len(a), len(b), band). A negative band is
// unconstrained; a non-negative band is widened to at least the length
// difference so a path always exists.
func DTWBanded(a, b []float64, band int) float64 {
	return dtwCore(a, b, band, math.Inf(1), false, nil)
}

// DTWEarlyAbandon is DTWBanded with early abandoning against an upper
// bound: after each DP row, if the row minimum exceeds ub the computation
// stops and +Inf is returned. Every warping path visits every row and
// point costs are non-negative, so a row minimum above ub certifies
// DTW > ub. When no row triggers abandoning the exact distance is
// returned — which can still exceed ub (only full rows are tested, not
// the final cell); callers filtering on ub must compare explicitly.
func DTWEarlyAbandon(a, b []float64, band int, ub float64) float64 {
	return dtwCore(a, b, band, ub, false, nil)
}

// DTWSq is DTWBanded with the squared point cost (a_i - b_j)², the
// UCR-Suite convention used by internal/ucrsuite's z-normalized mode. The
// result is the minimal summed squared cost, not its square root.
func DTWSq(a, b []float64, band int) float64 {
	return dtwCore(a, b, band, math.Inf(1), true, nil)
}

// DTWSqEarlyAbandon is DTWSq with the row-minimum early abandoning of
// DTWEarlyAbandon.
func DTWSqEarlyAbandon(a, b []float64, band int, ub float64) float64 {
	return dtwCore(a, b, band, ub, true, nil)
}

// Workspace is caller-owned scratch for the kernels that otherwise
// allocate per call: the two DTW rows and Envelope's two deques. A search
// that keeps one Workspace for its whole walk runs every DTW and envelope
// without allocating once the arrays have grown to the longest input. The
// zero value is ready to use; a Workspace is not safe for concurrent use.
type Workspace struct {
	rows       []float64
	maxQ, minQ []int
}

// DTWEarlyAbandon is the package-level DTWEarlyAbandon, bit for bit, run
// on ws's rows: it allocates only when b is longer than every candidate ws
// has seen.
func (ws *Workspace) DTWEarlyAbandon(a, b []float64, band int, ub float64) float64 {
	if cap(ws.rows) < 2*len(b) {
		ws.rows = make([]float64, 2*len(b))
	}
	return dtwCore(a, b, band, ub, false, ws.rows)
}

// dtwCore runs the banded DTW dynamic program on two rolling rows, taken
// from rows when it holds 2·len(b) cells and allocated otherwise.
// dp(i,j) = cost(a_i, b_j) + min(dp(i-1,j), dp(i-1,j-1), dp(i,j-1)),
// restricted to |i-j| <= w. Rows are swapped, never reallocated, and one
// +Inf sentinel is written on each side of a row's band window so the next
// row (whose window shifts by at most one) never reads a stale cell: the
// result does not depend on what rows held before.
func dtwCore(a, b []float64, band int, ub float64, squared bool, rows []float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	w := EffectiveBand(n, m, band)
	inf := math.Inf(1)

	if cap(rows) < 2*m {
		rows = make([]float64, 2*m)
	}
	prev, cur := rows[:m], rows[m:2*m]

	// Row 0: cumulative costs along the first row, inside the band.
	hi := w
	if hi > m-1 {
		hi = m - 1
	}
	acc := 0.0
	a0 := a[0]
	for j := 0; j <= hi; j++ {
		d := a0 - b[j]
		if d < 0 {
			d = -d
		}
		if squared {
			d *= d
		}
		acc += d
		prev[j] = acc
	}
	if hi+1 < m {
		prev[hi+1] = inf
	}
	// Row 0's minimum is its first cell (the row is a non-decreasing
	// cumulative sum).
	if prev[0] > ub {
		return inf
	}

	for i := 1; i < n; i++ {
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		hi = i + w
		if hi > m-1 {
			hi = m - 1
		}
		if lo > 0 {
			cur[lo-1] = inf
		}
		rowMin := inf
		ai := a[i]
		for j := lo; j <= hi; j++ {
			best := prev[j]
			if j > 0 {
				if diag := prev[j-1]; diag < best {
					best = diag
				}
				if left := cur[j-1]; left < best {
					best = left
				}
			}
			d := ai - b[j]
			if d < 0 {
				d = -d
			}
			if squared {
				d *= d
			}
			v := best + d
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if hi+1 < m {
			cur[hi+1] = inf
		}
		if rowMin > ub {
			return inf
		}
		prev, cur = cur, prev
	}
	return prev[m-1]
}

package dist

import "math"

// PathStep is one aligned index pair of a warping path: query index I
// matched to candidate index J.
type PathStep struct {
	I, J int
}

// WarpPath is a full DTW alignment: monotonically non-decreasing index
// pairs from {0,0} to {len(q)-1, len(c)-1}, each step advancing I, J, or
// both by one. It is the raw material of the demo's warped-points and
// connected-scatter views.
type WarpPath []PathStep

// MaxMultiplicityJ returns the largest number of path steps sharing one J
// (candidate) index — how many query points the most-reused candidate
// point absorbs. This is the μ of the engine's group-transfer bound
// DTW(q,s) <= DTW(q,rep) + μ·ED(rep,s): replacing the representative by a
// member re-prices each representative point at most μ times. Returns 0
// for an empty path.
func (p WarpPath) MaxMultiplicityJ() int {
	best, run := 0, 0
	for i, s := range p {
		if i > 0 && s.J != p[i-1].J {
			run = 0
		}
		run++
		if run > best {
			best = run
		}
	}
	return best
}

// MaxMultiplicityI is MaxMultiplicityJ for the I (query) side: the largest
// number of candidate points aligned to one query point.
func (p WarpPath) MaxMultiplicityI() int {
	best, run := 0, 0
	for i, s := range p {
		if i > 0 && s.I != p[i-1].I {
			run = 0
		}
		run++
		if run > best {
			best = run
		}
	}
	return best
}

// Valid reports whether p is a structurally well-formed warping path for
// a query of length lenQ and a candidate of length lenC: anchored at
// {0,0} and {lenQ-1, lenC-1}, with every step advancing I, J, or both by
// exactly one. An empty path is invalid.
func (p WarpPath) Valid(lenQ, lenC int) bool {
	if len(p) == 0 || lenQ <= 0 || lenC <= 0 {
		return false
	}
	if p[0] != (PathStep{0, 0}) || p[len(p)-1] != (PathStep{lenQ - 1, lenC - 1}) {
		return false
	}
	for i := 1; i < len(p); i++ {
		di, dj := p[i].I-p[i-1].I, p[i].J-p[i-1].J
		if di < 0 || di > 1 || dj < 0 || dj > 1 || di+dj == 0 {
			return false
		}
	}
	return true
}

// DTWPath returns the banded L1 DTW distance together with one optimal
// warping path. For non-empty inputs the distance equals
// DTWBanded(a, b, band) exactly; the
// path prefers diagonal steps on cost ties. Unlike the rolling-row
// variants this keeps every row of the DP table to backtrack the
// alignment — each row's band window only, min(2w+1, len(b)) cells for
// effective band w, so the table is len(a)·len(b) cells only when the band
// is unconstrained — and it is reserved for final, user-facing results
// (the engine computes paths only for the matches it returns). Empty input
// returns (+Inf, nil).
func DTWPath(a, b []float64, band int) (float64, WarpPath) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1), nil
	}
	w := EffectiveBand(n, m, band)
	t := bandTable{w: w, stride: min(2*w+1, m)}
	t.dp = make([]float64, n*t.stride)
	for i := 0; i < n; i++ {
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		hi := i + w
		if hi > m-1 {
			hi = m - 1
		}
		row := t.dp[i*t.stride-lo : i*t.stride-lo+hi+1] // row[j] is cell (i, j)
		ai := a[i]
		for j := lo; j <= hi; j++ {
			d := ai - b[j]
			if d < 0 {
				d = -d
			}
			if i == 0 && j == 0 {
				row[0] = d
				continue
			}
			best := math.Inf(1)
			if i > 0 {
				if v := t.at(i-1, j); v < best {
					best = v
				}
				if j > 0 {
					if v := t.at(i-1, j-1); v < best {
						best = v
					}
				}
			}
			if j > lo {
				if v := row[j-1]; v < best {
					best = v
				}
			}
			row[j] = best + d
		}
	}

	// Backtrack from the corner, preferring diagonal, then up, then left;
	// the minimal predecessor is by construction on an optimal path. Every
	// step moves: when no predecessor is below +Inf (NaN costs, or sums that
	// overflowed) the in-bounds diagonal, then up, then left is taken, so
	// the path still ends at {0,0} after at most n+m-1 steps.
	inf := math.Inf(1)
	path := make(WarpPath, 0, n+m)
	i, j := n-1, m-1
	for {
		path = append(path, PathStep{I: i, J: j})
		if i == 0 && j == 0 {
			break
		}
		bi, bj, best := i-1, j-1, inf
		switch {
		case i == 0:
			bi, bj = i, j-1
		case j == 0:
			bi, bj = i-1, j
		}
		if i > 0 && j > 0 {
			if v := t.at(i-1, j-1); v < best {
				bi, bj, best = i-1, j-1, v
			}
		}
		if i > 0 {
			if v := t.at(i-1, j); v < best {
				bi, bj, best = i-1, j, v
			}
		}
		if j > 0 {
			if v := t.at(i, j-1); v < best {
				bi, bj, best = i, j-1, v
			}
		}
		i, j = bi, bj
	}
	// Reverse into chronological order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return t.at(n-1, m-1), path
}

// bandTable is DTWPath's DP table: row i stores the cells (i, j) of its
// band window, max(0, i-w) <= j <= i+w (and j < len(b)), from offset
// i·stride.
type bandTable struct {
	dp        []float64
	w, stride int
}

// at returns cell (i, j), or +Inf outside row i's band window, which the
// dynamic program never writes and a full table would hold as +Inf.
func (t *bandTable) at(i, j int) float64 {
	lo := i - t.w
	if lo < 0 {
		lo = 0
	}
	if j < lo || j > i+t.w {
		return math.Inf(1)
	}
	return t.dp[i*t.stride+j-lo]
}

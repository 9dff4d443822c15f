package dist

// Envelope computes the banded Keogh envelope of values, projected onto
// outLen candidate positions: for each candidate index j, upper[j] and
// lower[j] are the max and min of every values[i] a banded warping path
// could align with j, i.e. |i-j| <= EffectiveBand(len(values), outLen,
// band). outLen may differ from len(values); the band is widened
// accordingly, exactly as the DTW variants widen it, so
// LBKeogh(c, upper, lower, ub) <= DTWBanded(values, c, band) for any
// candidate c of length outLen.
//
// The two corner positions are pinned rather than enveloped:
// upper[0] = lower[0] = values[0] and upper[outLen-1] = lower[outLen-1] =
// values[len-1]. Every warping path is anchored at (0,0) and
// (len-1, outLen-1), so the corners of the candidate always pay the exact
// endpoint cost; pinning keeps the bound valid while tightening it, and
// makes the cascade invariant LBKim <= LBKeogh structural (the two corner
// hinge terms are exactly LBKim's two endpoint terms). With outLen == 1
// there is no room to pin both anchors, so the single position stays a
// plain window min/max and only the independent LBKeogh <= DTW guarantee
// holds.
//
// Cost is O(len + outLen) via monotonic deques (the window endpoints are
// non-decreasing in j). Both returned slices have length outLen; an empty
// input or non-positive outLen returns nil slices.
func Envelope(values []float64, outLen, band int) (upper, lower []float64) {
	var ws Workspace
	return ws.Envelope(values, outLen, band, nil, nil)
}

// Envelope is the package-level Envelope, bit for bit, written into upper
// and lower (resliced to outLen when their capacity allows, reallocated
// otherwise) with ws's deques: a caller that keeps the slices and ws across
// queries computes envelopes without allocating. An empty input or
// non-positive outLen returns nil slices.
func (ws *Workspace) Envelope(values []float64, outLen, band int, upper, lower []float64) ([]float64, []float64) {
	n := len(values)
	if n == 0 || outLen <= 0 {
		return nil, nil
	}
	w := EffectiveBand(n, outLen, band)
	upper, lower = sized(upper, outLen), sized(lower, outLen)

	// maxQ/minQ hold indices into values with monotonically
	// decreasing/increasing values; heads advance as the window's lower
	// edge moves.
	if cap(ws.maxQ) < n {
		ws.maxQ, ws.minQ = make([]int, 0, n), make([]int, 0, n)
	}
	maxQ, minQ := ws.maxQ[:0], ws.minQ[:0]
	maxHead, minHead := 0, 0
	next := 0 // next values index to enter the window
	for j := 0; j < outLen; j++ {
		lo := j - w
		if lo < 0 {
			lo = 0
		}
		hi := j + w
		if hi > n-1 {
			hi = n - 1
		}
		for ; next <= hi; next++ {
			v := values[next]
			for len(maxQ) > maxHead && values[maxQ[len(maxQ)-1]] <= v {
				maxQ = maxQ[:len(maxQ)-1]
			}
			maxQ = append(maxQ, next)
			for len(minQ) > minHead && values[minQ[len(minQ)-1]] >= v {
				minQ = minQ[:len(minQ)-1]
			}
			minQ = append(minQ, next)
		}
		for maxQ[maxHead] < lo {
			maxHead++
		}
		for minQ[minHead] < lo {
			minHead++
		}
		upper[j] = values[maxQ[maxHead]]
		lower[j] = values[minQ[minHead]]
	}
	if outLen > 1 {
		upper[0], lower[0] = values[0], values[0]
		upper[outLen-1], lower[outLen-1] = values[n-1], values[n-1]
	}
	return upper, lower
}

// sized returns s with length n, reusing its array when it is large enough.
func sized(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

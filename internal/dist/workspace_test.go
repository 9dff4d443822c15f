package dist

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestWorkspaceDTWMatchesEarlyAbandon is the kernel equivalence property:
// Workspace.DTWEarlyAbandon equals DTWEarlyAbandon bit for bit, with one
// workspace reused across pairs of different, unequal lengths (so its rows
// hold a longer previous call's cells), at every band and against finite
// bounds below and above the distance as well as +Inf.
func TestWorkspaceDTWMatchesEarlyAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ws Workspace
	// Dirty rows: a stale cell read anywhere would change a result.
	ws.rows = make([]float64, 128)
	for i := range ws.rows {
		ws.rows[i] = -1
	}
	for trial := 0; trial < 600; trial++ {
		a := randSeries(rng, 1+rng.Intn(40))
		b := randSeries(rng, 1+rng.Intn(40))
		band := rng.Intn(len(a)+len(b)+2) - 1 // -1 .. beyond both lengths
		exact := DTWBanded(a, b, band)
		for _, ub := range []float64{math.Inf(1), exact, exact * rng.Float64(), exact * (1 + rng.Float64()), 0} {
			want := DTWEarlyAbandon(a, b, band, ub)
			if got := ws.DTWEarlyAbandon(a, b, band, ub); !sameBits(got, want) {
				t.Fatalf("trial %d (%d×%d, band %d, ub %g): workspace %g, DTWEarlyAbandon %g",
					trial, len(a), len(b), band, ub, got, want)
			}
		}
	}
	if got := ws.DTWEarlyAbandon(nil, []float64{1}, 0, math.Inf(1)); !math.IsInf(got, 1) {
		t.Fatalf("empty query: %g, want +Inf", got)
	}
}

// TestWorkspaceEnvelopeMatchesEnvelope pins the caller-slice envelope to
// Envelope bit for bit, with one workspace and one pair of output slices
// reused across inputs and output lengths of every size, at every band.
func TestWorkspaceEnvelopeMatchesEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var ws Workspace
	var u, l []float64
	for trial := 0; trial < 400; trial++ {
		q := randSeries(rng, 1+rng.Intn(40))
		outLen := rng.Intn(40)
		band := rng.Intn(len(q)+outLen+2) - 1
		wantU, wantL := Envelope(q, outLen, band)
		u, l = ws.Envelope(q, outLen, band, u, l)
		if !slices.Equal(u, wantU) || !slices.Equal(l, wantL) {
			t.Fatalf("trial %d (%d→%d, band %d): workspace envelope differs", trial, len(q), outLen, band)
		}
		if u == nil { // keep the arrays of earlier calls
			u, l = wantU, wantL
		}
	}
}

// TestWorkspaceAllocatesNothing pins that a warm workspace runs the DTW and
// envelope kernels without allocating.
func TestWorkspaceAllocatesNothing(t *testing.T) {
	a, b := benchPair(128)
	var ws Workspace
	u, l := ws.Envelope(a, 128, 4, nil, nil)
	ws.DTWEarlyAbandon(a, b, 4, math.Inf(1))
	if n := testing.AllocsPerRun(100, func() { ws.DTWEarlyAbandon(a, b[:100], 4, math.Inf(1)) }); n != 0 {
		t.Fatalf("Workspace.DTWEarlyAbandon: %v allocations a call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { u, l = ws.Envelope(a, 120, 4, u, l) }); n != 0 {
		t.Fatalf("Workspace.Envelope: %v allocations a call, want 0", n)
	}
}

// fullTablePath is the DTWPath reference over a full n·m table, every cell
// +Inf until the band writes it: the banded table must reproduce its
// distance and path bit for bit.
func fullTablePath(a, b []float64, band int) (float64, WarpPath) {
	n, m := len(a), len(b)
	w := EffectiveBand(n, m, band)
	inf := math.Inf(1)
	dp := make([]float64, n*m)
	for i := range dp {
		dp[i] = inf
	}
	for i := 0; i < n; i++ {
		for j := max(0, i-w); j <= min(m-1, i+w); j++ {
			d := math.Abs(a[i] - b[j])
			if i == 0 && j == 0 {
				dp[0] = d
				continue
			}
			best := inf
			if i > 0 {
				if v := dp[(i-1)*m+j]; v < best {
					best = v
				}
				if j > 0 {
					if v := dp[(i-1)*m+j-1]; v < best {
						best = v
					}
				}
			}
			if j > 0 {
				if v := dp[i*m+j-1]; v < best {
					best = v
				}
			}
			dp[i*m+j] = best + d
		}
	}
	var path WarpPath
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
			if v := dp[(i-1)*m+j-1]; v < best {
				bi, bj, best = i-1, j-1, v
			}
		}
		if i > 0 {
			if v := dp[(i-1)*m+j]; v < best {
				bi, bj, best = i-1, j, v
			}
		}
		if j > 0 {
			if v := dp[i*m+j-1]; v < best {
				bi, bj, best = i, j-1, v
			}
		}
		i, j = bi, bj
	}
	slices.Reverse(path)
	return dp[n*m-1], path
}

// TestDTWPathMatchesFullTable pins the banded DP table to the full-table
// reference: the same distance bits and the same path (diagonal, then up,
// then left on ties, and the in-bounds fallback on non-finite cells) over
// random pairs of unequal lengths, at bands -1, 0, 1 and 4, on finite
// values, values holding a NaN and values whose sums overflow.
func TestDTWPathMatchesFullTable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	big := math.MaxFloat64
	for trial := 0; trial < 300; trial++ {
		a := randSeries(rng, 1+rng.Intn(30))
		b := randSeries(rng, 1+rng.Intn(30))
		switch trial % 4 {
		case 1: // a NaN cost
			a[rng.Intn(len(a))] = math.NaN()
		case 2: // costs whose sums overflow to +Inf
			for i := range a {
				a[i] = big * float64(1-2*(i%2))
			}
			for j := range b {
				b[j] = -big * float64(1-2*(j%2))
			}
		case 3: // an infinite value
			b[rng.Intn(len(b))] = math.Inf(1)
		}
		for _, band := range []int{-1, 0, 1, 4} {
			wantD, wantP := fullTablePath(a, b, band)
			gotD, gotP := DTWPath(a, b, band)
			if !sameBits(gotD, wantD) || !slices.Equal(gotP, wantP) {
				t.Fatalf("trial %d (%d×%d, band %d): banded (%g, %v), full table (%g, %v)",
					trial, len(a), len(b), band, gotD, gotP, wantD, wantP)
			}
		}
	}
}

// TestDTWPathTableBanded pins that the DP table is banded: at band 4 the
// bytes DTWPath allocates for a 128×128 pair are about 9/128 of the full
// table's (the table is 9 cells a row, plus the path).
func TestDTWPathTableBanded(t *testing.T) {
	a, b := benchPair(128)
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		DTWPath(a, b, 4)
	}
	runtime.ReadMemStats(&after)
	full := float64(128 * 128 * 8)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / calls; got > full/4 {
		t.Fatalf("DTWPath allocates %v bytes at band 4, want under a quarter of the full table's %v", got, full)
	}
}

package dist

import (
	"math"
	"testing"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestEDKnown(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 2, 3}, []float64{1, 2, 3}, 0},
		{[]float64{0, 0}, []float64{1, -2}, 3},
		{[]float64{5}, []float64{2}, 3},
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := ED(c.a, c.b); !almost(got, c.want, 1e-12) {
			t.Errorf("ED(%v, %v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestEDLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ED accepted mismatched lengths")
		}
	}()
	ED([]float64{1}, []float64{1, 2})
}

func TestEDEarlyAbandon(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	b := []float64{1, 1, 1, 1}
	if got := EDEarlyAbandon(a, b, 10); !almost(got, 4, 1e-12) {
		t.Fatalf("unabandoned = %g, want 4", got)
	}
	if got := EDEarlyAbandon(a, b, 2.5); !math.IsInf(got, 1) {
		t.Fatalf("abandoned = %g, want +Inf", got)
	}
	// ub exactly equal to the distance must not abandon (abandon is strict).
	if got := EDEarlyAbandon(a, b, 4); !almost(got, 4, 1e-12) {
		t.Fatalf("ub == dist returned %g, want 4", got)
	}
}

func TestLBKimKnown(t *testing.T) {
	if got := LBKim([]float64{1, 5, 2}, []float64{3, 9, 4}); !almost(got, 4, 1e-12) {
		t.Fatalf("LBKim = %g, want 4", got)
	}
	// Unequal lengths use each side's own endpoints.
	if got := LBKim([]float64{1, 2}, []float64{1, 7, 8}); !almost(got, 6, 1e-12) {
		t.Fatalf("LBKim unequal = %g, want 6", got)
	}
	// A single-point pair is one alignment step, counted once.
	if got := LBKim([]float64{3}, []float64{5}); !almost(got, 2, 1e-12) {
		t.Fatalf("LBKim single = %g, want 2", got)
	}
	if got := LBKim(nil, []float64{1}); got != 0 {
		t.Fatalf("LBKim empty = %g, want 0", got)
	}
}

func TestEffectiveBand(t *testing.T) {
	cases := []struct {
		lenQ, lenC, band, want int
	}{
		{10, 10, 3, 3},     // equal lengths keep the configured band
		{10, 10, 0, 0},     // band 0 with equal lengths is the diagonal
		{10, 14, 0, 4},     // widened to the length difference
		{14, 10, 2, 4},     // symmetric widening
		{10, 14, 6, 6},     // band already wide enough
		{10, 14, -1, 14},   // unconstrained: max length
		{128, 64, -5, 128}, // any negative means unconstrained
	}
	for _, c := range cases {
		if got := EffectiveBand(c.lenQ, c.lenC, c.band); got != c.want {
			t.Errorf("EffectiveBand(%d, %d, %d) = %d, want %d", c.lenQ, c.lenC, c.band, got, c.want)
		}
	}
}

func TestResample(t *testing.T) {
	in := []float64{0, 1, 2, 3}
	// Identity length returns the same values.
	same := Resample(in, 4)
	for i := range in {
		if !almost(same[i], in[i], 1e-12) {
			t.Fatalf("identity resample differs at %d: %g", i, same[i])
		}
	}
	// Upsampling a linear ramp stays linear, endpoints preserved.
	up := Resample(in, 7)
	if len(up) != 7 {
		t.Fatalf("len = %d, want 7", len(up))
	}
	for i, v := range up {
		want := 3 * float64(i) / 6
		if !almost(v, want, 1e-12) {
			t.Fatalf("up[%d] = %g, want %g", i, v, want)
		}
	}
	// Downsampling preserves endpoints.
	down := Resample(in, 2)
	if !almost(down[0], 0, 1e-12) || !almost(down[1], 3, 1e-12) {
		t.Fatalf("down = %v, want [0 3]", down)
	}
	// Degenerate shapes.
	if got := Resample([]float64{7}, 3); got[0] != 7 || got[1] != 7 || got[2] != 7 {
		t.Fatalf("constant expand = %v", got)
	}
	if got := Resample(in, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("n=1 = %v", got)
	}
	if got := Resample(in, 0); got != nil {
		t.Fatalf("n=0 = %v, want nil", got)
	}
	if got := Resample(nil, 3); len(got) != 3 {
		t.Fatalf("empty input = %v, want 3 zeros", got)
	}
}

func TestEnvelopeShapeAndPinning(t *testing.T) {
	q := []float64{0, 4, 1, 3, 2}
	u, l := Envelope(q, 5, 1)
	if len(u) != 5 || len(l) != 5 {
		t.Fatalf("envelope lengths = %d, %d", len(u), len(l))
	}
	// Corners are pinned to the exact endpoint values.
	if u[0] != 0 || l[0] != 0 || u[4] != 2 || l[4] != 2 {
		t.Fatalf("corners not pinned: u=%v l=%v", u, l)
	}
	// Interior positions are windowed min/max over |i-j| <= 1.
	wantU := []float64{0, 4, 4, 3, 2}
	wantL := []float64{0, 0, 1, 1, 2}
	for j := range u {
		if u[j] != wantU[j] || l[j] != wantL[j] {
			t.Fatalf("envelope j=%d: u=%g l=%g, want u=%g l=%g", j, u[j], l[j], wantU[j], wantL[j])
		}
	}
	// Unconstrained band: interior = global min/max.
	u, l = Envelope(q, 5, -1)
	for j := 1; j < 4; j++ {
		if u[j] != 4 || l[j] != 0 {
			t.Fatalf("unconstrained interior j=%d: u=%g l=%g", j, u[j], l[j])
		}
	}
	// Projection onto a different output length widens the band.
	u, l = Envelope(q, 8, 0)
	if len(u) != 8 || u[0] != 0 || u[7] != 2 {
		t.Fatalf("projected envelope = %v", u)
	}
	if up, lo := Envelope(nil, 4, 1); up != nil || lo != nil {
		t.Fatal("empty input should return nil envelopes")
	}
}

func TestLBKeoghKnownAndAbandon(t *testing.T) {
	u := []float64{1, 2, 3}
	l := []float64{0, 1, 2}
	c := []float64{2, 0.5, 2.5} // hinges: 1, 0.5, 0
	if got := LBKeogh(c, u, l, math.Inf(1)); !almost(got, 1.5, 1e-12) {
		t.Fatalf("LBKeogh = %g, want 1.5", got)
	}
	if got := LBKeogh(c, u, l, 0.9); !math.IsInf(got, 1) {
		t.Fatalf("abandoned LBKeogh = %g, want +Inf", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LBKeogh accepted mismatched lengths")
		}
	}()
	LBKeogh(c, u[:2], l, 1)
}

func TestDTWKnown(t *testing.T) {
	// Identical series: zero.
	if got := DTW([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("self DTW = %g", got)
	}
	// Warping absorbs a repeated point: [0,3] vs [0,0,3] aligns perfectly.
	if got := DTW([]float64{0, 3}, []float64{0, 0, 3}); got != 0 {
		t.Fatalf("warped DTW = %g, want 0", got)
	}
	// Hand-computed small case (L1):
	// a=[0,1], b=[2,3]: path (0,0)(1,1) costs 2+2=4; no cheaper path.
	if got := DTW([]float64{0, 1}, []float64{2, 3}); !almost(got, 4, 1e-12) {
		t.Fatalf("DTW = %g, want 4", got)
	}
	// DTW <= ED for equal lengths (diagonal is one admissible path).
	a := []float64{0, 2, 0, 2, 0}
	b := []float64{2, 0, 2, 0, 2}
	if dtw, ed := DTW(a, b), ED(a, b); dtw > ed+1e-12 {
		t.Fatalf("DTW %g > ED %g", dtw, ed)
	}
	// Empty-input convention.
	if got := DTW(nil, []float64{1}); !math.IsInf(got, 1) {
		t.Fatalf("DTW(nil, x) = %g, want +Inf", got)
	}
	if got := DTW(nil, nil); got != 0 {
		t.Fatalf("DTW(nil, nil) = %g, want 0", got)
	}
}

func TestDTWBandMonotone(t *testing.T) {
	a := []float64{0, 1, 4, 2, 1, 0, 3, 5}
	b := []float64{1, 0, 2, 4, 1, 1, 5, 3}
	prev := math.Inf(1)
	for _, band := range []int{0, 1, 2, 3, 7, -1} {
		d := DTWBanded(a, b, band)
		if d > prev+1e-12 {
			t.Fatalf("widening the band to %d increased DTW: %g > %g", band, d, prev)
		}
		prev = d
	}
	// Band 0 on equal lengths is exactly the pointwise L1 distance.
	if d0 := DTWBanded(a, b, 0); !almost(d0, ED(a, b), 1e-12) {
		t.Fatalf("band-0 DTW %g != ED %g", d0, ED(a, b))
	}
}

func TestDTWSqKnown(t *testing.T) {
	a := []float64{0, 1}
	b := []float64{2, 3}
	// Same path as the L1 case: 2² + 2² = 8, no square root.
	if got := DTWSq(a, b, -1); !almost(got, 8, 1e-12) {
		t.Fatalf("DTWSq = %g, want 8", got)
	}
	if got := DTWSqEarlyAbandon(a, b, -1, 1); !math.IsInf(got, 1) {
		t.Fatalf("DTWSqEarlyAbandon = %g, want +Inf", got)
	}
}

func TestDTWEarlyAbandon(t *testing.T) {
	a := []float64{0, 1, 2, 3, 4}
	b := []float64{4, 3, 2, 1, 0}
	exact := DTWBanded(a, b, 2)
	if got := DTWEarlyAbandon(a, b, 2, math.Inf(1)); !almost(got, exact, 1e-12) {
		t.Fatalf("unbounded early abandon = %g, want %g", got, exact)
	}
	if got := DTWEarlyAbandon(a, b, 2, exact*0.25); !math.IsInf(got, 1) {
		t.Fatalf("tight bound returned %g, want +Inf", got)
	}
}

func TestDTWPathProperties(t *testing.T) {
	a := []float64{0, 1, 2, 1, 0}
	b := []float64{0, 0, 1, 2, 1, 0}
	for _, band := range []int{-1, 1, 3} {
		d, path := DTWPath(a, b, band)
		if !almost(d, DTWBanded(a, b, band), 1e-12) {
			t.Fatalf("band %d: path dist %g != DTWBanded %g", band, d, DTWBanded(a, b, band))
		}
		if !path.Valid(len(a), len(b)) {
			t.Fatalf("band %d: invalid path %v", band, path)
		}
		// The path respects the band and re-prices to the same total.
		w := EffectiveBand(len(a), len(b), band)
		sum := 0.0
		for _, s := range path {
			if s.I-s.J > w || s.J-s.I > w {
				t.Fatalf("band %d: step %v outside band %d", band, s, w)
			}
			sum += math.Abs(a[s.I] - b[s.J])
		}
		if !almost(sum, d, 1e-12) {
			t.Fatalf("band %d: path cost %g != dist %g", band, sum, d)
		}
	}
	if d, p := DTWPath(nil, []float64{1}, -1); !math.IsInf(d, 1) || p != nil {
		t.Fatal("empty DTWPath convention violated")
	}
}

// TestDTWPathNonFinite pins that the backtrack always steps: with NaN costs,
// or sums that overflow to +Inf, no predecessor is below +Inf, and a
// backtrack that waits for one never reaches {0,0}. The path must still be
// a valid warping path, at every band.
func TestDTWPathNonFinite(t *testing.T) {
	nan, big := math.NaN(), math.MaxFloat64
	cases := []struct {
		name string
		a, b []float64
	}{
		{"NaN query", []float64{0, nan, 2, 1}, []float64{0, 1, 2, 1, 0}},
		{"NaN candidate", []float64{0, 1, 2}, []float64{nan, 1, 2, 3}},
		{"all NaN", []float64{nan, nan, nan}, []float64{nan, nan}},
		{"+Inf value", []float64{0, math.Inf(1), 1}, []float64{0, 1, 1, 0}},
		{"overflow", []float64{big, -big, big, -big}, []float64{-big, big, -big}},
	}
	for _, c := range cases {
		for _, band := range []int{-1, 0, 1, 3} {
			_, path := DTWPath(c.a, c.b, band)
			if !path.Valid(len(c.a), len(c.b)) {
				t.Fatalf("%s band %d: invalid path %v", c.name, band, path)
			}
		}
	}
}

// TestLBKimEndsMatchesLBKim pins the endpoint form to LBKim bit for bit,
// signed zeros included, for queries of two or more points against
// candidates of any length.
func TestLBKimEndsMatchesLBKim(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-300, 3e300, math.Inf(1)}
	for _, q0 := range vals {
		for _, qn := range vals {
			for _, c0 := range vals {
				for _, cn := range vals {
					q := []float64{q0, 7, qn}
					for _, c := range [][]float64{{c0, cn}, {c0, 1, cn}} {
						if got, want := LBKimEnds(q0, qn, c[0], c[len(c)-1]), LBKim(q, c); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("LBKimEnds(%g, %g, %g, %g) = %g, LBKim = %g", q0, qn, c[0], c[len(c)-1], got, want)
						}
					}
					if got, want := LBKimEnds(q0, qn, c0, c0), LBKim(q, []float64{c0}); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("single-point candidate %g: LBKimEnds %g, LBKim %g", c0, got, want)
					}
				}
			}
		}
	}
}

func TestWarpPathValid(t *testing.T) {
	good := WarpPath{{0, 0}, {0, 1}, {1, 2}, {2, 2}}
	if !good.Valid(3, 3) {
		t.Fatal("valid path rejected")
	}
	bad := []struct {
		name string
		p    WarpPath
	}{
		{"empty", nil},
		{"wrong start", WarpPath{{1, 0}, {2, 2}}},
		{"wrong end", WarpPath{{0, 0}, {1, 1}}},
		{"jump", WarpPath{{0, 0}, {2, 2}}},
		{"stall", WarpPath{{0, 0}, {0, 0}, {2, 2}}},
		{"backwards", WarpPath{{0, 0}, {1, 1}, {0, 2}, {2, 2}}},
	}
	for _, c := range bad {
		if c.p.Valid(3, 3) {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestWarpPathMultiplicity(t *testing.T) {
	p := WarpPath{{0, 0}, {1, 0}, {2, 0}, {3, 1}, {3, 2}, {4, 3}}
	if got := p.MaxMultiplicityJ(); got != 3 {
		t.Fatalf("MaxMultiplicityJ = %d, want 3", got)
	}
	if got := p.MaxMultiplicityI(); got != 2 {
		t.Fatalf("MaxMultiplicityI = %d, want 2", got)
	}
	var empty WarpPath
	if empty.MaxMultiplicityJ() != 0 || empty.MaxMultiplicityI() != 0 {
		t.Fatal("empty path multiplicity should be 0")
	}
}

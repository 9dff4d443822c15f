package gen

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/ts"
)

func TestMattersShape(t *testing.T) {
	d := Matters(MattersOptions{Indicator: GrowthRate})
	if d.Len() != 50 {
		t.Fatalf("states = %d, want 50", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	ma, ok := d.ByName("MA")
	if !ok {
		t.Fatal("MA missing")
	}
	if ma.Len() != 24 {
		t.Fatalf("default periods = %d, want 24", ma.Len())
	}
	if ma.Label("region") != "newengland" {
		t.Fatalf("MA region = %q", ma.Label("region"))
	}
	if ma.Label("unit") != "percent" {
		t.Fatalf("GrowthRate unit = %q", ma.Label("unit"))
	}
}

func TestMattersDeterministic(t *testing.T) {
	a := Matters(MattersOptions{Indicator: TechEmployment, Seed: 5})
	b := Matters(MattersOptions{Indicator: TechEmployment, Seed: 5})
	for i := range a.Series {
		for j := range a.Series[i].Values {
			if a.Series[i].Values[j] != b.Series[i].Values[j] {
				t.Fatal("same seed produced different data")
			}
		}
	}
	c := Matters(MattersOptions{Indicator: TechEmployment, Seed: 6})
	same := true
	for i := range a.Series {
		for j := range a.Series[i].Values {
			if a.Series[i].Values[j] != c.Series[i].Values[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// The planted regional structure: MA must be closer (on average, under ED
// after min-max normalization) to its New England neighbors than to the
// average non-neighbor.
func TestMattersRegionalStructure(t *testing.T) {
	d := Matters(MattersOptions{Indicator: GrowthRate})
	if err := ts.NormalizeMinMax(d); err != nil {
		t.Fatal(err)
	}
	ma, _ := d.ByName("MA")
	var inRegion, outRegion []float64
	for _, s := range d.Series {
		if s.Name == "MA" {
			continue
		}
		dd := dist.ED(ma.Values, s.Values)
		if s.Label("region") == "newengland" {
			inRegion = append(inRegion, dd)
		} else {
			outRegion = append(outRegion, dd)
		}
	}
	if len(inRegion) != 5 {
		t.Fatalf("new england neighbors = %d, want 5", len(inRegion))
	}
	if ts.Mean(inRegion) >= ts.Mean(outRegion) {
		t.Fatalf("regional structure absent: in %.3f >= out %.3f",
			ts.Mean(inRegion), ts.Mean(outRegion))
	}
}

// Indicators differ in scale by orders of magnitude (the threshold-
// recommendation motivation).
func TestMattersIndicatorScales(t *testing.T) {
	growth := Matters(MattersOptions{Indicator: GrowthRate})
	income := Matters(MattersOptions{Indicator: MedianIncome})
	gs := ts.DatasetStats(growth)
	is := ts.DatasetStats(income)
	if is.Mean < gs.Mean*1000 {
		t.Fatalf("scale separation missing: income %.1f vs growth %.3f", is.Mean, gs.Mean)
	}
}

func TestMattersAllIndicators(t *testing.T) {
	for _, ind := range []Indicator{GrowthRate, UnemploymentRate, TechEmployment, MedianIncome, TaxBurden} {
		d := Matters(MattersOptions{Indicator: ind, Periods: 12})
		if err := d.Validate(); err != nil {
			t.Fatalf("%v: %v", ind, err)
		}
		if d.Series[0].Len() != 12 {
			t.Fatalf("%v: periods not honored", ind)
		}
		if ind.String() == "" || d.Series[0].Label("indicator") != ind.String() {
			t.Fatalf("%v: indicator label missing", ind)
		}
	}
}

func TestElectricityShape(t *testing.T) {
	d := ElectricityLoad(ElectricityOptions{Households: 3, Days: 28, SamplesPerDay: 24})
	if d.Len() != 3 {
		t.Fatalf("households = %d", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Series[0].Len() != 28*24 {
		t.Fatalf("series length = %d, want %d", d.Series[0].Len(), 28*24)
	}
	// Loads are physically positive.
	for _, s := range d.Series {
		for _, v := range s.Values {
			if v <= 0 {
				t.Fatalf("non-positive load %g", v)
			}
		}
	}
}

// The planted daily cycle: autocorrelation at lag = one day must exceed
// autocorrelation at a non-harmonic lag.
func TestElectricityDailyCycle(t *testing.T) {
	d := ElectricityLoad(ElectricityOptions{Households: 1, Days: 56, SamplesPerDay: 24})
	vals := d.Series[0].Values
	dayLag := autocorr(vals, 24)
	offLag := autocorr(vals, 17)
	if dayLag <= offLag {
		t.Fatalf("daily cycle absent: ac(24)=%.3f <= ac(17)=%.3f", dayLag, offLag)
	}
}

// Seasonality: winter consumption exceeds shoulder-season consumption for
// every household (heating is universal in the model).
func TestElectricitySeasonality(t *testing.T) {
	d := ElectricityLoad(ElectricityOptions{Households: 4, Days: 365, SamplesPerDay: 24})
	for _, s := range d.Series {
		winter := ts.Mean(s.Values[0 : 30*24])         // days 0-30 (near winter peak)
		shoulder := ts.Mean(s.Values[100*24 : 130*24]) // spring
		if winter <= shoulder {
			t.Fatalf("%s: winter %.3f <= shoulder %.3f", s.Name, winter, shoulder)
		}
	}
}

func autocorr(vals []float64, lag int) float64 {
	st := ts.Summarize(vals)
	if st.Std == 0 {
		return 0
	}
	sum := 0.0
	n := len(vals) - lag
	for i := 0; i < n; i++ {
		sum += (vals[i] - st.Mean) * (vals[i+lag] - st.Mean)
	}
	return sum / (float64(n) * st.Std * st.Std)
}

func TestCBFShapeAndClasses(t *testing.T) {
	d := CBF(CBFOptions{PerClass: 5, Length: 64})
	if d.Len() != 15 {
		t.Fatalf("series = %d, want 15", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range d.Series {
		counts[s.Label("class")]++
		if s.Len() != 64 {
			t.Fatalf("length = %d", s.Len())
		}
	}
	for _, class := range []string{"cylinder", "bell", "funnel"} {
		if counts[class] != 5 {
			t.Fatalf("class %s count = %d", class, counts[class])
		}
	}
}

// CBF classes are separable: a cylinder's event plateau mean sits well
// above the noise floor.
func TestCBFEventPresent(t *testing.T) {
	d := CBF(CBFOptions{PerClass: 3, Length: 128, Seed: 8})
	for _, s := range d.Series {
		st := ts.Summarize(s.Values)
		if st.Max < 3 {
			t.Fatalf("%s: no event visible (max %.2f)", s.Name, st.Max)
		}
	}
}

func TestRandomWalks(t *testing.T) {
	d := RandomWalks(WalkOptions{Num: 7, Length: 50, Seed: 3})
	if d.Len() != 7 || d.Series[0].Len() != 50 {
		t.Fatalf("shape wrong: %d x %d", d.Len(), d.Series[0].Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Drift pushes the endpoint with overwhelming probability.
	dr := RandomWalks(WalkOptions{Num: 5, Length: 200, Drift: 0.5, Seed: 4})
	for _, s := range dr.Series {
		if s.Values[199] <= s.Values[0] {
			t.Fatalf("drifted walk went down: %g -> %g", s.Values[0], s.Values[199])
		}
	}
}

func TestWarpedSines(t *testing.T) {
	d := WarpedSines(SineOptions{PerClass: 4, Length: 96, Classes: 2, Seed: 6})
	if d.Len() != 8 {
		t.Fatalf("series = %d", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// The whole point of this family: same-class pairs are much closer
	// under DTW than under ED.
	var s0, s1 *ts.Series
	for _, s := range d.Series {
		if s.Label("class") == "f0" {
			if s0 == nil {
				s0 = s
			} else if s1 == nil {
				s1 = s
			}
		}
	}
	ed := dist.ED(s0.Values, s1.Values)
	dtw := dist.DTW(s0.Values, s1.Values)
	if dtw >= ed {
		t.Fatalf("warping gave no benefit: DTW %.2f >= ED %.2f", dtw, ed)
	}
	if dtw > ed*0.8 {
		t.Logf("note: modest warping benefit (DTW %.2f vs ED %.2f)", dtw, ed)
	}
}

func TestECGShapeAndLabels(t *testing.T) {
	d := ECG(ECGOptions{Num: 4, Beats: 10, SamplesPerBeat: 24, Arrhythmic: true})
	if d.Len() != 4 {
		t.Fatalf("recordings = %d", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	classes := map[string]int{}
	for _, s := range d.Series {
		classes[s.Label("class")]++
		// ~10 beats x ~24 samples, with jitter.
		if s.Len() < 10*12 || s.Len() > 10*40 {
			t.Fatalf("%s: implausible length %d", s.Name, s.Len())
		}
	}
	if classes["normal"] != 2 || classes["arrhythmia"] != 2 {
		t.Fatalf("class split = %v", classes)
	}
	// Without the flag, everything is normal.
	d2 := ECG(ECGOptions{Num: 3, Beats: 5})
	for _, s := range d2.Series {
		if s.Label("class") != "normal" {
			t.Fatal("non-arrhythmic generator produced arrhythmia label")
		}
	}
}

// The planted beat periodicity: autocorrelation at one beat period beats a
// non-harmonic lag (same check as the electricity daily cycle).
func TestECGBeatPeriodicity(t *testing.T) {
	d := ECG(ECGOptions{Num: 1, Beats: 40, SamplesPerBeat: 24, Seed: 9})
	vals := d.Series[0].Values
	beat := autocorr(vals, 24)
	off := autocorr(vals, 17)
	if beat <= off {
		t.Fatalf("beat periodicity absent: ac(24)=%.3f <= ac(17)=%.3f", beat, off)
	}
}

// DTW absorbs the RR jitter far better than pointwise comparison: two
// normal recordings should be much closer under DTW than under ED at the
// same length.
func TestECGWarpingMatters(t *testing.T) {
	d := ECG(ECGOptions{Num: 2, Beats: 8, SamplesPerBeat: 24, Seed: 5})
	a, b := d.Series[0].Values, d.Series[1].Values
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	ed := dist.ED(a[:n], b[:n])
	dtw := dist.DTW(a[:n], b[:n])
	if dtw >= ed*0.8 {
		t.Fatalf("DTW %.2f vs ED %.2f: warping gave <20%% benefit on jittered beats", dtw, ed)
	}
}

func TestGeneratorsNoNaN(t *testing.T) {
	datasets := []*ts.Dataset{
		Matters(MattersOptions{Indicator: UnemploymentRate}),
		ElectricityLoad(ElectricityOptions{Households: 2, Days: 14}),
		CBF(CBFOptions{PerClass: 2, Length: 32}),
		RandomWalks(WalkOptions{Num: 2, Length: 32}),
		WarpedSines(SineOptions{PerClass: 2, Length: 32}),
	}
	for _, d := range datasets {
		for _, s := range d.Series {
			for _, v := range s.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s/%s contains non-finite value", d.Name, s.Name)
				}
			}
		}
	}
}

// TestIndicatorByName: every indicator resolves from its String in any
// case, and nothing else resolves.
func TestIndicatorByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Indicator
		ok   bool
	}{
		{"GrowthRate", GrowthRate, true},
		{"growthrate", GrowthRate, true},
		{"GROWTHRATE", GrowthRate, true},
		{"UnemploymentRate", UnemploymentRate, true},
		{"techemployment", TechEmployment, true},
		{"MedianIncome", MedianIncome, true},
		{"taxBurden", TaxBurden, true},
		{"", 0, false},
		{"nope", 0, false},
		{"Growth", 0, false},
		{"Indicator(5)", 0, false},
	} {
		got, ok := IndicatorByName(tc.name)
		if got != tc.want || ok != tc.ok {
			t.Errorf("IndicatorByName(%q) = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

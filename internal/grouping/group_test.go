package grouping

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/ts"
)

// testDataset builds a small deterministic dataset with obvious cluster
// structure: two families of series (flat-ish and ramp-ish) plus noise.
func testDataset(t testing.TB, numSeries, length int, seed int64) *ts.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := ts.NewDataset("grouptest")
	for i := 0; i < numSeries; i++ {
		vals := make([]float64, length)
		if i%2 == 0 {
			for j := range vals {
				vals[j] = 0.5 + rng.NormFloat64()*0.02
			}
		} else {
			for j := range vals {
				vals[j] = float64(j)/float64(length) + rng.NormFloat64()*0.02
			}
		}
		d.MustAdd(ts.NewSeries(seriesName(i), vals))
	}
	return d
}

func seriesName(i int) string {
	return string(rune('A'+i%26)) + string(rune('0'+i/26))
}

func TestBuildBasics(t *testing.T) {
	d := testDataset(t, 6, 20, 1)
	b, err := Build(d, Options{ST: 0.4, MinLength: 4, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	if b.MinLength != 4 || b.MaxLength != 8 {
		t.Fatalf("length range = [%d,%d]", b.MinLength, b.MaxLength)
	}
	wantLengths := []int{4, 5, 6, 7, 8}
	got := b.Lengths()
	if len(got) != len(wantLengths) {
		t.Fatalf("Lengths = %v", got)
	}
	for i, l := range wantLengths {
		if got[i] != l {
			t.Fatalf("Lengths = %v, want %v", got, wantLengths)
		}
	}
	// Every window accounted for.
	if b.NumSubsequences() != d.NumSubsequences(4, 8) {
		t.Fatalf("subsequences %d != windows %d", b.NumSubsequences(), d.NumSubsequences(4, 8))
	}
	if b.NumGroups() == 0 || b.NumGroups() > b.NumSubsequences() {
		t.Fatalf("groups = %d", b.NumGroups())
	}
	if b.GroupsOfLength(999) != nil {
		t.Fatal("absent length should return nil")
	}
	if b.CompactionRatio() < 1 {
		t.Fatalf("compaction ratio %g < 1", b.CompactionRatio())
	}
	if err := b.Validate(d); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildInvariantHolds(t *testing.T) {
	d := testDataset(t, 8, 30, 2)
	b, err := Build(d, Options{ST: 0.3, MinLength: 5, MaxLength: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range b.Lengths() {
		half := b.HalfST(l)
		for _, g := range b.GroupsOfLength(l) {
			if r := g.MaxRadius(d); r > half+1e-9 {
				t.Fatalf("length %d group radius %g > ST*l/2 %g", l, r, half)
			}
			// Pairwise diameter <= ST*l via metric triangle inequality;
			// spot check directly on small groups.
			if len(g.Members) <= 8 {
				for i := 0; i < len(g.Members); i++ {
					for j := i + 1; j < len(g.Members); j++ {
						dd := dist.ED(g.Members[i].Values(d), g.Members[j].Values(d))
						if dd > 2*half+1e-9 {
							t.Fatalf("pairwise %g > ST*l %g", dd, 2*half)
						}
					}
				}
			}
		}
	}
}

func TestBuildSkipRepairMayDrift(t *testing.T) {
	d := testDataset(t, 8, 30, 3)
	b, err := Build(d, Options{ST: 0.3, MinLength: 5, MaxLength: 10, SkipRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	// The unrepaired base still covers every window exactly once...
	if b.NumSubsequences() != d.NumSubsequences(5, 10) {
		t.Fatal("coverage broken without repair")
	}
	// ...but Validate may reject it (drift); both outcomes are legal, we
	// only require it not to panic.
	_ = b.Validate(d)
}

func TestBuildTightThresholdMakesSingletons(t *testing.T) {
	d := testDataset(t, 4, 16, 4)
	b, err := Build(d, Options{ST: 1e-12, MinLength: 4, MaxLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	// With a near-zero threshold, almost every window is its own group.
	if b.NumGroups() < b.NumSubsequences()/2 {
		t.Fatalf("expected near-singleton grouping, got %d groups for %d windows",
			b.NumGroups(), b.NumSubsequences())
	}
}

func TestBuildLooseThresholdCompacts(t *testing.T) {
	d := testDataset(t, 8, 24, 5)
	tight, err := Build(d, Options{ST: 0.05, MinLength: 6, MaxLength: 6})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Build(d, Options{ST: 2.0, MinLength: 6, MaxLength: 6})
	if err != nil {
		t.Fatal(err)
	}
	if loose.NumGroups() > tight.NumGroups() {
		t.Fatalf("loose ST produced more groups (%d) than tight (%d)",
			loose.NumGroups(), tight.NumGroups())
	}
}

func TestBuildErrors(t *testing.T) {
	d := testDataset(t, 2, 10, 6)
	if _, err := Build(d, Options{ST: 0}); err == nil {
		t.Fatal("zero ST accepted")
	}
	if _, err := Build(d, Options{ST: 1, MinLength: 20, MaxLength: 30}); err == nil {
		t.Fatal("empty length range accepted")
	}
	if _, err := Build(ts.NewDataset("empty"), Options{ST: 1}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestBuildDefaultsLengthRange(t *testing.T) {
	d := testDataset(t, 2, 12, 7)
	b, err := Build(d, Options{ST: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if b.MinLength != 2 || b.MaxLength != 12 {
		t.Fatalf("default range [%d,%d], want [2,12]", b.MinLength, b.MaxLength)
	}
}

func TestDatasetChecksumSensitivity(t *testing.T) {
	d1 := testDataset(t, 3, 10, 9)
	d2 := d1.Clone()
	if DatasetChecksum(d1) != DatasetChecksum(d2) {
		t.Fatal("clone checksum differs")
	}
	d2.Series[1].Values[3] += 1e-9
	if DatasetChecksum(d1) == DatasetChecksum(d2) {
		t.Fatal("value perturbation not detected")
	}
	d3 := d1.Clone()
	d3.Name = "other"
	if DatasetChecksum(d1) == DatasetChecksum(d3) {
		t.Fatal("name change not detected")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	d := testDataset(t, 6, 20, 10)
	b, err := Build(d, Options{ST: 0.35, MinLength: 4, MaxLength: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.DatasetName != b.DatasetName || back.DatasetSum != b.DatasetSum ||
		back.ST != b.ST || back.MinLength != b.MinLength || back.MaxLength != b.MaxLength {
		t.Fatalf("header mismatch: %+v vs %+v", back, b)
	}
	if back.NumGroups() != b.NumGroups() || back.NumSubsequences() != b.NumSubsequences() {
		t.Fatal("shape mismatch after round trip")
	}
	for _, l := range b.Lengths() {
		g1 := b.GroupsOfLength(l)
		g2 := back.GroupsOfLength(l)
		if len(g1) != len(g2) {
			t.Fatalf("length %d group count mismatch", l)
		}
		for i := range g1 {
			if len(g1[i].Members) != len(g2[i].Members) {
				t.Fatalf("length %d group %d member count mismatch", l, i)
			}
			for k := range g1[i].Rep {
				if g1[i].Rep[k] != g2[i].Rep[k] {
					t.Fatalf("rep value drift after round trip")
				}
			}
			for k := range g1[i].Members {
				if g1[i].Members[k] != g2[i].Members[k] {
					t.Fatalf("member drift after round trip")
				}
			}
		}
	}
	if err := back.Validate(d); err != nil {
		t.Fatalf("round-tripped base fails validation: %v", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	d := testDataset(t, 3, 12, 11)
	b, err := Build(d, Options{ST: 0.5, MinLength: 4, MaxLength: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xFF
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Flipped payload byte -> CRC failure.
	bad2 := append([]byte{}, raw...)
	bad2[len(bad2)/2] ^= 0x01
	if _, err := Read(bytes.NewReader(bad2)); err == nil {
		t.Fatal("corrupted payload accepted")
	}
	// Truncated stream.
	if _, err := Read(bytes.NewReader(raw[:len(raw)-6])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestValidateDetectsTampering(t *testing.T) {
	d := testDataset(t, 4, 16, 13)
	b, err := Build(d, Options{ST: 0.4, MinLength: 4, MaxLength: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Drop one member: coverage check must fire.
	for _, l := range b.Lengths() {
		gs := b.GroupsOfLength(l)
		if len(gs) > 0 && len(gs[0].Members) > 1 {
			gs[0].Members = gs[0].Members[1:]
			break
		}
	}
	if err := b.Validate(d); err == nil {
		t.Fatal("member removal not detected")
	}
}

func TestValidateDetectsRadiusViolation(t *testing.T) {
	d := testDataset(t, 4, 16, 14)
	b, err := Build(d, Options{ST: 0.4, MinLength: 5, MaxLength: 5})
	if err != nil {
		t.Fatal(err)
	}
	gs := b.GroupsOfLength(5)
	// Push a representative far away.
	for i := range gs[0].Rep {
		gs[0].Rep[i] += 100
	}
	if err := b.Validate(d); err == nil {
		t.Fatal("radius violation not detected")
	}
}

func TestBuildDeterministicSingleWorker(t *testing.T) {
	d := testDataset(t, 6, 20, 15)
	b1, err := Build(d, Options{ST: 0.4, MinLength: 4, MaxLength: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Build(d, Options{ST: 0.4, MinLength: 4, MaxLength: 8, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Per-length construction is deterministic regardless of worker count
	// (workers parallelize across lengths, not within).
	if b1.NumGroups() != b2.NumGroups() || b1.NumSubsequences() != b2.NumSubsequences() {
		t.Fatalf("worker count changed result: %d/%d vs %d/%d",
			b1.NumGroups(), b1.NumSubsequences(), b2.NumGroups(), b2.NumSubsequences())
	}
}

func TestBuildStatspopulated(t *testing.T) {
	d := testDataset(t, 6, 20, 16)
	b, err := Build(d, Options{ST: 0.4, MinLength: 4, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := b.BuildStats
	if st.NumWindows == 0 || st.NumGroups == 0 || st.Duration <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.NumWindows != d.NumSubsequences(4, 8) {
		t.Fatalf("window count %d != expected %d", st.NumWindows, d.NumSubsequences(4, 8))
	}
}

// Fuzz-ish property check across random datasets: invariant + coverage.
func TestPropertyBuildInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		d := ts.NewDataset("prop")
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			l := 8 + rng.Intn(12)
			vals := make([]float64, l)
			v := rng.Float64()
			for j := range vals {
				v += rng.NormFloat64() * 0.1
				vals[j] = v
			}
			d.MustAdd(ts.NewSeries(seriesName(i), vals))
		}
		st := 0.05 + rng.Float64()*0.8
		b, err := Build(d, Options{ST: st, MinLength: 3, MaxLength: 7})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := b.Validate(d); err != nil {
			t.Fatalf("trial %d (ST=%g): %v", trial, st, err)
		}
	}
}

func TestMaxRadiusFinite(t *testing.T) {
	d := testDataset(t, 4, 12, 17)
	b, err := Build(d, Options{ST: 0.4, MinLength: 4, MaxLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range b.GroupsOfLength(4) {
		if r := g.MaxRadius(d); math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("bad radius %g", r)
		}
	}
}

// requireRepIsFirst fails unless every singleton of b carries RepIsFirst
// exactly when its member equals the representative in d, and no group
// carries it over a first member that differs: the exact walk's
// radius-zero rule reads the bit in place of the values.
func requireRepIsFirst(t *testing.T, step string, b *Base, d *ts.Dataset) {
	t.Helper()
	for _, l := range b.Lengths() {
		for gi, g := range b.GroupsOfLength(l) {
			equal := slices.Equal(g.Members[0].Values(d), g.Rep)
			if g.RepIsFirst && !equal || len(g.Members) == 1 && g.RepIsFirst != equal {
				t.Fatalf("%s: length %d group %d (%d members): RepIsFirst %v, first member equals representative %v",
					step, l, gi, len(g.Members), g.RepIsFirst, equal)
			}
		}
	}
}

// requireEnds fails unless every length of b holds the endpoint table of
// its representatives, by position and bit for bit: the query walk reads
// LB_Kim keys from it in place of the representatives.
func requireEnds(t *testing.T, step string, b *Base) {
	t.Helper()
	for _, l := range b.Lengths() {
		lg := b.ByLength[l]
		if len(lg.Ends) != 2*len(lg.Groups) {
			t.Fatalf("%s: length %d holds %d endpoints for %d groups", step, l, len(lg.Ends), len(lg.Groups))
		}
		for gi, g := range lg.Groups {
			if math.Float64bits(lg.Ends[2*gi]) != math.Float64bits(g.Rep[0]) ||
				math.Float64bits(lg.Ends[2*gi+1]) != math.Float64bits(g.Rep[l-1]) {
				t.Fatalf("%s: length %d group %d: endpoints (%v, %v), representative (%v, %v)",
					step, l, gi, lg.Ends[2*gi], lg.Ends[2*gi+1], g.Rep[0], g.Rep[l-1])
			}
		}
	}
}

// TestValidateRejectsStaleEnds: Validate rejects an endpoint table that is
// short, long, or differs from a representative in one endpoint.
func TestValidateRejectsStaleEnds(t *testing.T) {
	d := ts.NewDataset("ends")
	d.MustAdd(ts.NewSeries("a", []float64{1, 2, 3, 2}))
	b, err := Build(d, Options{ST: 0.01, MinLength: 3, MaxLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(d); err != nil {
		t.Fatal(err)
	}
	lg := b.ByLength[3]
	ends := slices.Clone(lg.Ends)
	for name, bad := range map[string][]float64{
		"short":     ends[:len(ends)-2],
		"long":      append(slices.Clone(ends), 1, 3),
		"first end": append([]float64{ends[0] + 1}, ends[1:]...),
		"last end":  append(slices.Clone(ends[:len(ends)-1]), ends[len(ends)-1]-1),
	} {
		lg.Ends = bad
		if err := b.Validate(d); err == nil {
			t.Fatalf("Validate accepted a %s endpoint table", name)
		}
	}
}

// TestRepIsFirst pins the radius-zero bit on a singleton whose
// representative is not its member, which Build's clustering never leaves
// (see finishLength) but a base may hold: finishLength leaves the bit clear
// on it, Validate rejects the bit on it, DeriveRepIsFirst leaves it clear
// after a round trip, and both set it on the singleton that equals its
// representative. A member outside the dataset is an error rather than a
// panic.
func TestRepIsFirst(t *testing.T) {
	d := ts.NewDataset("rep-is-first")
	d.MustAdd(ts.NewSeries("a", []float64{1, 2, 3}))
	d.MustAdd(ts.NewSeries("b", []float64{1, 2, 3.5}))
	a := ts.SubSeq{Series: 0, Start: 0, Length: 3}
	bm := ts.SubSeq{Series: 1, Start: 0, Length: 3}
	lg3 := &LengthGroups{Length: 3}
	lg3.Append(&Group{Length: 3, Rep: []float64{1, 2, 3.25}, Members: []ts.SubSeq{a}})
	lg3.Append(&Group{Length: 3, Rep: []float64{1, 2, 3.5}, Members: []ts.SubSeq{bm}})
	b := &Base{
		DatasetName: d.Name, DatasetSum: DatasetChecksum(d), ST: 1, MinLength: 3, MaxLength: 3,
		ByLength: map[int]*LengthGroups{3: lg3},
	}
	if err := b.Validate(d); err != nil {
		t.Fatal(err)
	}
	centroid, seed := b.ByLength[3].Groups[0], b.ByLength[3].Groups[1]
	lg := finishLength(d, 3, []*Group{centroid, {Length: 3, Rep: []float64{1, 2, 3}}, seed})
	if len(lg.Groups) != 2 || centroid.RepIsFirst || !seed.RepIsFirst {
		t.Fatalf("finishLength kept %d groups, RepIsFirst %v on the centroid singleton and %v on the seed; want 2, false, true",
			len(lg.Groups), centroid.RepIsFirst, seed.RepIsFirst)
	}
	centroid.RepIsFirst = true
	if err := b.Validate(d); err == nil {
		t.Fatal("Validate accepted RepIsFirst on a member that differs from its representative")
	}
	centroid.RepIsFirst = false

	loaded := roundTrip(t, b)
	if err := loaded.DeriveRepIsFirst(d); err != nil {
		t.Fatal(err)
	}
	requireRepIsFirst(t, "Read", loaded, d)
	if lg := loaded.ByLength[3]; lg.Groups[0].RepIsFirst || !lg.Groups[1].RepIsFirst {
		t.Fatalf("derived RepIsFirst %v and %v, want false and true", lg.Groups[0].RepIsFirst, lg.Groups[1].RepIsFirst)
	}
	if err := loaded.Validate(d); err != nil {
		t.Fatal(err)
	}

	seed.Members = []ts.SubSeq{{Series: 2, Start: 0, Length: 3}}
	if err := b.DeriveRepIsFirst(d); err == nil {
		t.Fatal("DeriveRepIsFirst accepted a member outside the dataset")
	}
}

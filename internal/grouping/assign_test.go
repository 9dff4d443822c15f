package grouping

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/ts"
)

// The linear scan every assignment used before the index, kept as the
// oracle: nearest representative within half, ties to the lowest index.
// reps[i] == nil marks a group that takes no members.
func refNearest(w []float64, reps [][]float64, half float64) int {
	best := -1
	bestD := math.Inf(1)
	for gi, rep := range reps {
		if rep == nil || dist.LBKim(w, rep) > half {
			continue
		}
		ub := half
		if bestD < ub {
			ub = bestD
		}
		dd := dist.EDEarlyAbandon(w, rep, ub)
		if dd <= half && dd < bestD {
			best = gi
			bestD = dd
		}
	}
	return best
}

// builderGroup is the reference's group under construction: a centroid
// that follows its members.
type builderGroup struct {
	sum, rep []float64
	members  []ts.SubSeq
}

func (bg *builderGroup) add(vals []float64, ref ts.SubSeq) {
	if bg.sum == nil {
		bg.sum = make([]float64, len(vals))
		bg.rep = make([]float64, len(vals))
	}
	bg.members = append(bg.members, ref)
	inv := 1 / float64(len(bg.members))
	for i, v := range vals {
		bg.sum[i] += v
		bg.rep[i] = bg.sum[i] * inv
	}
}

// refBuild is Build on the linear scan (serial; Build's result does not
// depend on Workers).
func refBuild(d *ts.Dataset, opts Options) *Base {
	b := &Base{
		DatasetName: d.Name, DatasetSum: DatasetChecksum(d), Norm: d.Norm.Kind,
		ST: opts.ST, MinLength: opts.MinLength, MaxLength: opts.MaxLength,
		ByLength: make(map[int]*LengthGroups),
	}
	for l := opts.MinLength; l <= opts.MaxLength; l++ {
		half := b.HalfST(l)
		var groups []*builderGroup
		reps := func() [][]float64 {
			out := make([][]float64, len(groups))
			for i, g := range groups {
				if len(g.members) > 0 {
					out[i] = g.rep
				}
			}
			return out
		}
		for si, s := range d.Series {
			for start := 0; start+l <= s.Len(); start++ {
				w := s.Values[start : start+l]
				b.BuildStats.NumWindows++
				ref := ts.SubSeq{Series: si, Start: start, Length: l}
				if best := refNearest(w, reps(), half); best >= 0 {
					groups[best].add(w, ref)
				} else {
					ng := &builderGroup{}
					ng.add(w, ref)
					groups = append(groups, ng)
				}
			}
		}
		if !opts.SkipRepair {
			var strays []ts.SubSeq
			for _, g := range groups {
				kept := g.members[:0]
				for _, m := range g.members {
					if dist.EDEarlyAbandon(m.Values(d), g.rep, half) <= half {
						kept = append(kept, m)
					} else {
						strays = append(strays, m)
					}
				}
				g.members = kept
			}
			for _, m := range strays {
				w := m.Values(d)
				if best := refNearest(w, reps(), half); best >= 0 {
					groups[best].members = append(groups[best].members, m)
					b.BuildStats.Rehomed++
				} else {
					groups = append(groups, &builderGroup{rep: append([]float64(nil), w...), members: []ts.SubSeq{m}})
					b.BuildStats.Reseeded++
				}
			}
		}
		lg := &LengthGroups{Length: l}
		for _, bg := range groups {
			if len(bg.members) > 0 {
				lg.Append(&Group{Length: l, Rep: bg.rep, Members: bg.members})
			}
		}
		if len(lg.Groups) == 0 {
			continue
		}
		b.ByLength[l] = lg
		b.BuildStats.NumGroups += len(lg.Groups)
	}
	return b
}

// refAddSeries is AddSeries on the linear scan and the full re-hash.
func refAddSeries(b *Base, d *ts.Dataset, si int) {
	s := d.Series[si]
	for l := b.MinLength; l <= b.MaxLength && l <= s.Len(); l++ {
		lg := b.ByLength[l]
		if lg == nil {
			lg = &LengthGroups{Length: l}
			b.ByLength[l] = lg
		}
		for start := 0; start+l <= s.Len(); start++ {
			w := s.Values[start : start+l]
			reps := make([][]float64, len(lg.Groups))
			for i, g := range lg.Groups {
				reps[i] = g.Rep
			}
			ref := ts.SubSeq{Series: si, Start: start, Length: l}
			if best := refNearest(w, reps, b.HalfST(l)); best >= 0 {
				lg.Groups[best].Members = append(lg.Groups[best].Members, ref)
			} else {
				lg.Append(&Group{Length: l, Rep: append([]float64(nil), w...), Members: []ts.SubSeq{ref}})
			}
			b.BuildStats.NumWindows++
		}
	}
	b.BuildStats.NumGroups = b.NumGroups()
	b.DatasetSum = DatasetChecksum(d)
}

// requireSameBase fails unless got is want bit for bit: same lengths, same
// groups in the same order, same representative bits, same members in the
// same order, same checksum and counters.
func requireSameBase(t *testing.T, step string, got, want *Base) {
	t.Helper()
	if got.DatasetSum != want.DatasetSum {
		t.Fatalf("%s: DatasetSum %x, want %x", step, got.DatasetSum, want.DatasetSum)
	}
	gs, ws := got.BuildStats, want.BuildStats
	if gs.NumWindows != ws.NumWindows || gs.NumGroups != ws.NumGroups || gs.Rehomed != ws.Rehomed || gs.Reseeded != ws.Reseeded {
		t.Fatalf("%s: stats %+v, want %+v", step, gs, ws)
	}
	if g, w := got.Lengths(), want.Lengths(); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s: lengths %v, want %v", step, g, w)
	}
	for _, l := range want.Lengths() {
		gg, wg := got.GroupsOfLength(l), want.GroupsOfLength(l)
		if len(gg) != len(wg) {
			t.Fatalf("%s: length %d has %d groups, want %d", step, l, len(gg), len(wg))
		}
		for gi := range wg {
			for i, v := range wg[gi].Rep {
				if math.Float64bits(gg[gi].Rep[i]) != math.Float64bits(v) {
					t.Fatalf("%s: length %d group %d rep[%d] = %v, want %v", step, l, gi, i, gg[gi].Rep[i], v)
				}
			}
			if fmt.Sprint(gg[gi].Members) != fmt.Sprint(wg[gi].Members) {
				t.Fatalf("%s: length %d group %d members %v, want %v", step, l, gi, gg[gi].Members, wg[gi].Members)
			}
		}
	}
}

// diffData describes one family of datasets for the differential test;
// stScale puts ST (given per point for unit-range data) in its units.
type diffData struct {
	name    string
	stScale float64
	series  func(rng *rand.Rand, n int) []float64
}

func walk(rng *rand.Rand, n int, scale, shift float64) []float64 {
	vals := make([]float64, n)
	v := rng.Float64()
	for i := range vals {
		v += rng.NormFloat64() * 0.03
		vals[i] = v*scale + shift
	}
	return vals
}

var diffFamilies = []diffData{
	{"normalized", 1, func(rng *rand.Rand, n int) []float64 { return walk(rng, n, 1, 0) }},
	// Raw units around ±1e6 with ST in the same units (groups form) and
	// with a unit-range ST (every bound is a rounding error away from the
	// sums it is compared with).
	{"raw1e6", 1e6, func(rng *rand.Rand, n int) []float64 { return walk(rng, n, 2e6, -1e6) }},
	{"raw1e6-tinyST", 1, func(rng *rand.Rand, n int) []float64 { return walk(rng, n, 2e6, -1e6) }},
	// Constant series: identical windows, zero distances.
	{"constant", 1, func(rng *rand.Rand, n int) []float64 {
		vals := make([]float64, n)
		c := float64(rng.Intn(3)) * 0.25
		for i := range vals {
			vals[i] = c
		}
		return vals
	}},
	// Small integers: distances are exact, so a window is routinely
	// equidistant from several representatives and ties decide.
	{"integer-ties", 4, func(rng *rand.Rand, n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(4) - 1)
		}
		return vals
	}},
}

// TestIndexedAssignmentMatchesLinearScan is the differential test of the
// tentpole: through Build, repeated AddSeries, AddSeries→RemoveSeries and a
// Write/Read round trip, the indexed base equals the linear-scan base bit
// for bit and DatasetSum tracks DatasetChecksum(d) at every step.
func TestIndexedAssignmentMatchesLinearScan(t *testing.T) {
	lengthRanges := [][2]int{{2, 5}, {4, 9}, {7, 16}, {16, 21}}
	sts := []float64{0.01, 0.05, 0.1, 0.3}
	for fi, fam := range diffFamilies {
		for ri, lr := range lengthRanges {
			for sti, st := range sts {
				seed := int64(1000*fi + 100*ri + sti)
				opts := Options{ST: st * fam.stScale, MinLength: lr[0], MaxLength: lr[1], SkipRepair: seed%5 == 4}
				t.Run(fmt.Sprintf("%s/len%d-%d/st%g", fam.name, lr[0], lr[1], st), func(t *testing.T) {
					diffOneConfig(t, fam, opts, seed)
				})
			}
		}
	}
}

func diffOneConfig(t *testing.T, fam diffData, opts Options, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	d := ts.NewDataset("diff")
	for i := 0; i < 5; i++ {
		d.MustAdd(ts.NewSeries(fmt.Sprintf("s%d", i), fam.series(rng, 24+rng.Intn(16))))
	}
	checkSum := func(step string, b *Base) {
		t.Helper()
		if want := DatasetChecksum(d); b.DatasetSum != want {
			t.Fatalf("%s: DatasetSum %x != DatasetChecksum(d) %x", step, b.DatasetSum, want)
		}
	}
	// nextSeries alternates fresh series, perturbed copies of indexed ones
	// (existing groups grow) and a windowless one.
	nextSeries := func(i int) *ts.Series {
		name := fmt.Sprintf("new%d", d.Len())
		switch i % 3 {
		case 0:
			return ts.NewSeries(name, fam.series(rng, 20+rng.Intn(20)))
		case 1:
			src := d.Series[rng.Intn(d.Len())].Values
			vals := make([]float64, len(src))
			for j, v := range src {
				vals[j] = v + rng.NormFloat64()*0.004*fam.stScale
			}
			return ts.NewSeries(name, vals)
		}
		return ts.NewSeries(name, fam.series(rng, 1))
	}

	got, err := Build(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := refBuild(d, opts)
	requireSameBase(t, "Build", got, want)
	requireRepIsFirst(t, "Build", got, d)
	requireEnds(t, "Build", got)

	for i := 0; i < 5; i++ {
		d.MustAdd(nextSeries(i))
		step := fmt.Sprintf("AddSeries #%d", i)
		if err := got.AddSeries(d, d.Len()-1); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		refAddSeries(want, d, d.Len()-1)
		requireSameBase(t, step, got, want)
		requireRepIsFirst(t, step, got, d)
		requireEnds(t, step, got)
		checkSum(step, got)
	}
	// Re-adding a windowless series is an accepted no-op and must not be
	// hashed twice.
	d.MustAdd(nextSeries(2))
	for i := 0; i < 2; i++ {
		if err := got.AddSeries(d, d.Len()-1); err != nil {
			t.Fatal(err)
		}
		checkSum("windowless series", got)
	}
	refAddSeries(want, d, d.Len()-1)

	// Rollback: AddSeries→RemoveSeries restores the pre-insert base bit for
	// bit, group positions included, against a deep copy (a Write→Read
	// round trip) and against the linear scan, which never sees the series.
	// Then inserts continue through a rebuilt index.
	for i := 0; i < 2; i++ {
		before := roundTrip(t, got)
		rolled := nextSeries(i)
		d.MustAdd(rolled)
		si := d.Len() - 1
		if err := got.AddSeries(d, si); err != nil {
			t.Fatal(err)
		}
		d.Remove(rolled.Name)
		got.RemoveSeries(d, si)
		step := fmt.Sprintf("RemoveSeries #%d", i)
		requireSameBase(t, step, got, before)
		requireSameBase(t, step, got, want)
		requireRepIsFirst(t, step, got, d)
		requireEnds(t, step, got)
		checkSum(step, got)
	}
	d.MustAdd(nextSeries(1))
	if err := got.AddSeries(d, d.Len()-1); err != nil {
		t.Fatal(err)
	}
	refAddSeries(want, d, d.Len()-1)
	requireSameBase(t, "AddSeries after RemoveSeries", got, want)
	requireEnds(t, "AddSeries after RemoveSeries", got)
	checkSum("AddSeries after RemoveSeries", got)

	// A deserialized base has neither index nor dataset: the first insert
	// rebuilds one and re-ties the other. Its radius-zero bits are derived
	// against d, as a reopening DB does.
	loaded := roundTrip(t, got)
	if err := loaded.DeriveRepIsFirst(d); err != nil {
		t.Fatal(err)
	}
	requireRepIsFirst(t, "Read", loaded, d)
	requireEnds(t, "Read", loaded)
	for i := 0; i < 2; i++ {
		d.MustAdd(nextSeries(i))
		step := fmt.Sprintf("AddSeries #%d after Read", i)
		if err := loaded.AddSeries(d, d.Len()-1); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		refAddSeries(want, d, d.Len()-1)
		requireSameBase(t, step, loaded, want)
		requireRepIsFirst(t, step, loaded, d)
		requireEnds(t, step, loaded)
		checkSum(step, loaded)
	}
	if !opts.SkipRepair {
		if err := loaded.Validate(d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuickSegmentBoundBelowED: whenever a representative is within half
// of a window by dist.ED, the filter's bound stays within its reach and the
// representative's cell within the window's range — at any magnitude, which
// is why the slack is relative to the data rather than an absolute epsilon.
func TestQuickSegmentBoundBelowED(t *testing.T) {
	f := func(seed int64, lenRaw, expRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 2 + int(lenRaw)%200
		scale := math.Pow(10, float64(int(expRaw)%81-40)) // 1e-40 .. 1e40
		w, rep := make([]float64, l), make([]float64, l)
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * scale
			// Near w (cancellation-heavy) or anywhere in range.
			if seed%2 == 0 {
				rep[i] = w[i] + rng.NormFloat64()*scale*1e-9
			} else {
				rep[i] = (rng.Float64()*2 - 1) * scale
			}
		}
		// The tightest radius this pair qualifies under is its own ED; a
		// looser one, also tried, leaves the sums further from the cell edges.
		half := dist.ED(w, rep) * float64(1+uint64(seed)%3)
		if half == 0 {
			return true
		}
		ix := newRepIndex(half, []*Group{{Length: l, Rep: rep}})
		ws, abs := sumSegments(w)
		u := ix.units(&ws)
		reach := ix.reach(l, abs)
		c := ix.cellAt(0)
		return segBound(&u, ix.segs) <= reach &&
			cellOf(u.total()-reach) <= c && c <= cellOf(u.total()+reach)
	}
	cfg := &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(163))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRepairSkipsEmptiedGroups: a group the repair pass emptied is dropped
// from the base, so a stray must not re-home into it however near its
// representative is (drift rarely empties a group, so the differential test
// seldom reaches this).
func TestRepairSkipsEmptiedGroups(t *testing.T) {
	d := ts.NewDataset("repair")
	d.MustAdd(ts.NewSeries("a", []float64{5, 5, 5}))
	d.MustAdd(ts.NewSeries("b", []float64{0, 0, 0.1}))
	a := ts.SubSeq{Series: 0, Start: 0, Length: 3}
	b := ts.SubSeq{Series: 1, Start: 0, Length: 3}
	// Each group holds the window nearest the *other* group's representative.
	groups := []*Group{
		{Length: 3, Rep: []float64{0, 0, 0}, Members: []ts.SubSeq{a}},
		{Length: 3, Rep: []float64{5, 5, 5.1}, Members: []ts.SubSeq{b}},
	}
	ix := newRepIndex(1, groups)
	var stats BuildStats
	groups = repairLength(d, groups, ix, &stats)
	if stats.Rehomed != 0 || stats.Reseeded != 2 || len(groups) != 4 {
		t.Fatalf("rehomed %d, reseeded %d, %d groups; want 0, 2, 4", stats.Rehomed, stats.Reseeded, len(groups))
	}
	if len(groups[0].Members)+len(groups[1].Members) != 0 {
		t.Fatal("a stray re-homed into an emptied group")
	}
}

// roundTrip returns a deep copy of b through Write and Read.
func roundTrip(t *testing.T, b *Base) *Base {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

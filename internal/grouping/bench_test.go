package grouping

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ts"
)

// benchData is one write-path benchmark regime: at least 1 000 groups per
// length, so a per-window pass over every group would dominate.
type benchData struct {
	name   string
	opts   Options
	series int
	gen    func(rng *rand.Rand) []float64
}

var benchRegimes = []benchData{
	// Smooth bounded walks: grouping compacts ~70x, totals separate groups.
	{"walk", Options{ST: 0.035, MinLength: 28, MaxLength: 32}, 400, func(rng *rand.Rand) []float64 {
		vals := make([]float64, 256)
		v := rng.Float64()
		for i := range vals {
			v += rng.NormFloat64() / 90
			if v < 0 {
				v = -v
			}
			if v > 1 {
				v = 2 - v
			}
			vals[i] = v
		}
		return vals
	}},
	// Noise: every window its own group, totals barely separate anything —
	// the segment sums carry the search.
	{"noisy", Options{ST: 0.1, MinLength: 24, MaxLength: 32}, 12, func(rng *rand.Rand) []float64 {
		vals := make([]float64, 128)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		return vals
	}},
}

func (bd benchData) dataset(rng *rand.Rand) *ts.Dataset {
	d := ts.NewDataset("bench-" + bd.name)
	for i := 0; i < bd.series; i++ {
		d.MustAdd(ts.NewSeries(fmt.Sprintf("s%04d", i), bd.gen(rng)))
	}
	return d
}

func reportGroupsPerLength(b *testing.B, base *Base) {
	b.ReportMetric(float64(base.NumGroups())/float64(len(base.ByLength)), "groups/length")
}

func BenchmarkBuild(b *testing.B) {
	for _, bd := range benchRegimes {
		b.Run(bd.name, func(b *testing.B) {
			d := bd.dataset(rand.New(rand.NewSource(1)))
			b.ReportAllocs()
			b.ResetTimer()
			var base *Base
			for i := 0; i < b.N; i++ {
				var err error
				if base, err = Build(d, bd.opts); err != nil {
					b.Fatal(err)
				}
			}
			reportGroupsPerLength(b, base)
		})
	}
}

// BenchmarkAddSeries times one insert into a standing base (the base grows
// by one series per iteration, as a served dataset does).
func BenchmarkAddSeries(b *testing.B) {
	for _, bd := range benchRegimes {
		b.Run(bd.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			d := bd.dataset(rng)
			base, err := Build(d, bd.opts)
			if err != nil {
				b.Fatal(err)
			}
			incoming := make([]*ts.Series, b.N)
			for i := range incoming {
				incoming[i] = ts.NewSeries(fmt.Sprintf("new%06d", i), bd.gen(rng))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, s := range incoming {
				d.MustAdd(s)
				if err := base.AddSeries(d, d.Len()-1); err != nil {
					b.Fatal(err)
				}
			}
			reportGroupsPerLength(b, base)
		})
	}
}

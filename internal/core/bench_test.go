package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// benchBase is one query-benchmark regime at workload scale: thousands of
// groups over many lengths, where per-query bookkeeping over the candidate
// array shows next to the DTW work.
type benchBase struct {
	name    string
	build   func(tb testing.TB) *Engine
	queries [][]float64
	once    sync.Once
	e       *Engine
}

var benchBases = []*benchBase{
	// Smooth reflected walks on a ladder of levels: grouping compacts ~50x,
	// so the LB cascade over representatives carries approximate queries.
	{name: "compact", build: func(tb testing.TB) *Engine {
		rng := rand.New(rand.NewSource(1))
		d := ts.NewDataset("bench-compact")
		const series = 100
		for i := 0; i < series; i++ {
			vals, v := make([]float64, 256), (float64(i)+rng.Float64())/series
			for j := range vals {
				v += rng.NormFloat64() / 90
				for v < 0 || v > 1 {
					if v < 0 {
						v = -v
					} else {
						v = 2 - v
					}
				}
				vals[j] = v
			}
			d.MustAdd(ts.NewSeries(fmt.Sprintf("s%03d", i), vals))
		}
		return benchEngine(tb, d, grouping.Options{ST: 0.035, MinLength: 16, MaxLength: 32}, false)
	}},
	// Min-max normalized cylinder-bell-funnel noise under a tiny ST: every
	// window is its own group, so the DTW kernel does the query work.
	{name: "singleton", build: func(tb testing.TB) *Engine {
		d := gen.CBF(gen.CBFOptions{PerClass: 4, Length: 128, Seed: 7})
		if err := ts.NormalizeMinMax(d); err != nil {
			tb.Fatal(err)
		}
		return benchEngine(tb, d, grouping.Options{ST: 0.01, MinLength: 23, MaxLength: 32}, true)
	}},
}

// benchEngine builds the base and checks the regime it claims: at least
// 5 000 groups over at least 10 lengths, and every group a singleton when
// singleton is set.
func benchEngine(tb testing.TB, d *ts.Dataset, opts grouping.Options, singleton bool) *Engine {
	base, err := grouping.Build(d, opts)
	if err != nil {
		tb.Fatal(err)
	}
	n := base.NumGroups()
	if n < 5000 || len(base.Lengths()) < 10 {
		tb.Fatalf("%s: %d groups over %d lengths", d.Name, n, len(base.Lengths()))
	}
	if w := d.NumSubsequences(opts.MinLength, opts.MaxLength); singleton && n != w {
		tb.Fatalf("%s: %d groups for %d windows, want all singletons", d.Name, n, w)
	}
	e, err := NewEngine(d, base, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// engine builds the base on first use, with 16 queries: dataset windows of
// the middle length plus a little noise, as an analyst's brushed window.
func (bb *benchBase) engine(tb testing.TB) *Engine {
	bb.once.Do(func() {
		bb.e = bb.build(tb)
		d, rng := bb.e.ds, rand.New(rand.NewSource(2))
		l := (bb.e.base.MinLength + bb.e.base.MaxLength) / 2
		for i := 0; i < 16; i++ {
			s := d.Series[rng.Intn(len(d.Series))]
			start := rng.Intn(s.Len() - l + 1)
			q := append([]float64(nil), s.Values[start:start+l]...)
			for j := range q {
				q[j] += rng.NormFloat64() * 0.001
			}
			bb.queries = append(bb.queries, q)
		}
	})
	if bb.e == nil {
		tb.Fatal("benchmark base failed to build")
	}
	return bb.e
}

// benchOptions are the bench queries' options: band 4, length-normalized.
var benchOptions = Options{Band: 4, LengthNorm: true}

// rangeQueries returns one range query per bench query, at the score of
// its exact nth best match, capped at k (0 = uncapped).
func (bb *benchBase) rangeQueries(tb testing.TB, nth, k int) []FindOptions {
	e := bb.engine(tb)
	out := make([]FindOptions, len(bb.queries))
	for i, q := range bb.queries {
		out[i] = FindOptions{Options: benchOptions, K: k, Range: true, MaxDist: kthScore(tb, e, q, nth, benchOptions)}
	}
	return out
}

func benchmarkFind(b *testing.B, mode Mode) {
	for _, bb := range benchBases {
		b.Run(bb.name, func(b *testing.B) {
			e := bb.engine(b)
			fo := FindOptions{Options: benchOptions, K: 5}
			fo.Mode = mode
			var dtws int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Find(context.Background(), bb.queries[i%len(bb.queries)], fo)
				if err != nil {
					b.Fatal(err)
				}
				dtws += res.Stats.RepDTW + res.Stats.MemberDTW
			}
			b.ReportMetric(float64(dtws)/float64(b.N), "dtws/op")
		})
	}
}

// BenchmarkFindApprox times one approximate top-5 query on a compacting walk base (8.9k groups over 17 lengths) and an all-singleton
// one; dtws/op is the representative plus member DTW count.
func BenchmarkFindApprox(b *testing.B) { benchmarkFind(b, ModeApprox) }

// BenchmarkFindExact is BenchmarkFindApprox in exact mode.
func BenchmarkFindExact(b *testing.B) { benchmarkFind(b, ModeExact) }

// BenchmarkFindRange times one range query on the bench bases: uncapped at
// each query's exact 50th best score, and capped at K = 5 at its 500th
// best, where it should cost about what exact top-5 does. dtws/op is as in
// BenchmarkFindApprox.
func BenchmarkFindRange(b *testing.B) {
	for _, bb := range benchBases {
		b.Run(bb.name, func(b *testing.B) {
			e := bb.engine(b)
			for _, rc := range []struct {
				name   string
				nth, k int
			}{{"uncapped", 50, 0}, {"capped", 500, 5}} {
				fos := bb.rangeQueries(b, rc.nth, rc.k)
				b.Run(rc.name, func(b *testing.B) {
					var dtws int
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := e.Find(context.Background(), bb.queries[i%len(bb.queries)], fos[i%len(fos)])
						if err != nil {
							b.Fatal(err)
						}
						dtws += res.Stats.DTWs()
					}
					b.ReportMetric(float64(dtws)/float64(b.N), "dtws/op")
				})
			}
		})
	}
}

// BenchmarkFindClients measures query throughput under concurrent clients:
// b.RunParallel runs one client per GOMAXPROCS, so -cpu 1,2 prints one
// client next to two. Each client issues the bench bases' top-5 queries
// (band 4) round robin; ns/op is wall time per query across all clients.
func BenchmarkFindClients(b *testing.B) {
	for _, mode := range []Mode{ModeApprox, ModeExact} {
		for _, bb := range benchBases {
			b.Run(mode.String()+"/"+bb.name, func(b *testing.B) {
				e := bb.engine(b)
				fo := FindOptions{Options: benchOptions, K: 5}
				fo.Mode = mode
				var next atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						q := bb.queries[int(next.Add(1))%len(bb.queries)]
						if _, err := e.Find(context.Background(), q, fo); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

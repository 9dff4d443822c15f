package onex

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/ts"
)

// benchDataset is the warm-start benchmark workload: 30 CBF series of 96
// points each gives the grouping build enough subsequences to dominate a
// cold open, which is exactly the cost the snapshot exists to amortize.
func benchDataset() *ts.Dataset {
	return gen.CBF(gen.CBFOptions{PerClass: 10, Length: 96, Seed: 1})
}

var benchCfg = Config{MinLength: 8, MaxLength: 24}

// BenchmarkOpenSnapshot compares the two ways to reach a queryable DB:
// "rebuild" pays the full grouping construction; "warm" decodes the
// snapshot and checksum-verifies it against the rebuilt index. The ratio is
// the restart-latency win a deployment buys by passing -store.
func BenchmarkOpenSnapshot(b *testing.B) {
	d := benchDataset()

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Open(d.Clone(), benchCfg); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		eng, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		db, err := Open(d.Clone(), Config{MinLength: benchCfg.MinLength, MaxLength: benchCfg.MaxLength, Store: eng})
		if err != nil {
			eng.Close()
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm, err := OpenStore(dir, Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := warm.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkOpenMmap compares the two warm-open value strategies over the
// same snapshot: "eager" decodes every float64 run onto the heap, "mmap"
// leaves them in the page-cache-backed mapping. The timed region is the
// open alone (the restart-latency question); each iteration still answers
// one untimed query so a broken open can't benchmark well. The untimed
// live_heap_bytes metric is the steady-state heap an open DB retains — the
// beyond-RAM headline: the mapped open keeps the raw value arrays out of
// it.
func BenchmarkOpenMmap(b *testing.B) {
	d := benchDataset()
	dir := b.TempDir()
	eng, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	db, err := Open(d.Clone(), Config{MinLength: benchCfg.MinLength, MaxLength: benchCfg.MaxLength, Store: eng})
	if err != nil {
		eng.Close()
		b.Fatal(err)
	}
	q := append([]float64(nil), d.Series[0].Values[0:16]...)
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}

	for _, mode := range []struct {
		name string
		mmap bool
	}{{"eager", false}, {"mmap", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				warm, err := OpenStore(dir, Config{MmapValues: mode.mmap})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := warm.Find(context.Background(), Query{Values: q, K: 3}); err != nil {
					b.Fatal(err)
				}
				if err := warm.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(liveHeapBytes(b, dir, mode.mmap), "live_heap_bytes")
		})
	}
}

// liveHeapBytes measures the heap retained by one open DB: GC to a
// quiescent baseline, open, GC again, and diff HeapAlloc while the DB is
// still referenced.
func liveHeapBytes(b *testing.B, dir string, mmap bool) float64 {
	b.Helper()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	warm, err := OpenStore(dir, Config{MmapValues: mmap})
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if err := warm.Close(); err != nil {
		b.Fatal(err)
	}
	if delta < 0 {
		delta = 0
	}
	return float64(delta)
}

package grouping

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ts"
)

func TestAddSeriesPreservesInvariants(t *testing.T) {
	d := testDataset(t, 5, 24, 41)
	b, err := Build(d, Options{ST: 0.05, MinLength: 4, MaxLength: 9})
	if err != nil {
		t.Fatal(err)
	}
	before := b.NumSubsequences()

	// Append a new series to the dataset, then index it.
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 24)
	v := 0.4
	for i := range vals {
		v += rng.NormFloat64() * 0.03
		vals[i] = v
	}
	d.MustAdd(ts.NewSeries("ZZnew", vals))
	if err := b.AddSeries(d, d.Len()-1); err != nil {
		t.Fatal(err)
	}

	// Full validation: coverage (including the new series' windows),
	// radius invariant, no duplicates, checksum.
	if err := b.Validate(d); err != nil {
		t.Fatalf("post-insert validation: %v", err)
	}
	wantNew := 0
	for l := 4; l <= 9; l++ {
		wantNew += 24 - l + 1
	}
	if got := b.NumSubsequences() - before; got != wantNew {
		t.Fatalf("inserted %d windows, want %d", got, wantNew)
	}
	if b.BuildStats.NumWindows != b.NumSubsequences() {
		t.Fatalf("stats window count %d != actual %d", b.BuildStats.NumWindows, b.NumSubsequences())
	}
}

func TestAddSeriesRejectsDoubleInsert(t *testing.T) {
	d := testDataset(t, 4, 20, 43)
	b, err := Build(d, Options{ST: 0.05, MinLength: 4, MaxLength: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddSeries(d, 0); err == nil {
		t.Fatal("double insertion accepted")
	}
	if err := b.AddSeries(d, -1); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := b.AddSeries(d, 99); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	// A streamed series is tracked too: inserting it again must fail
	// without a member scan.
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 20)
	v := 0.5
	for i := range vals {
		v += rng.NormFloat64() * 0.03
		vals[i] = v
	}
	d.MustAdd(ts.NewSeries("ZZstream", vals))
	if err := b.AddSeries(d, d.Len()-1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSeries(d, d.Len()-1); err == nil {
		t.Fatal("double insertion of a streamed series accepted")
	}
}

// TestAddSeriesDoubleInsertAfterLoad pins that the O(1) indexed-series set
// — which is not part of the wire format — is recomputed from the stored
// membership on load, so a deserialized base still rejects re-streaming.
func TestAddSeriesDoubleInsertAfterLoad(t *testing.T) {
	d := testDataset(t, 4, 20, 46)
	b, err := Build(d, Options{ST: 0.05, MinLength: 4, MaxLength: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for si := 0; si < d.Len(); si++ {
		if err := loaded.AddSeries(d, si); err == nil {
			t.Fatalf("loaded base accepted double insertion of series %d", si)
		}
	}
	// Fresh series still stream in after a load, and get tracked.
	rng := rand.New(rand.NewSource(8))
	vals := make([]float64, 20)
	v := 0.5
	for i := range vals {
		v += rng.NormFloat64() * 0.03
		vals[i] = v
	}
	d.MustAdd(ts.NewSeries("ZZpostload", vals))
	if err := loaded.AddSeries(d, d.Len()-1); err != nil {
		t.Fatal(err)
	}
	if err := loaded.AddSeries(d, d.Len()-1); err == nil {
		t.Fatal("loaded base accepted double insertion of a streamed series")
	}
	if err := loaded.Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestAddSeriesShortSeries(t *testing.T) {
	d := testDataset(t, 3, 20, 45)
	b, err := Build(d, Options{ST: 0.05, MinLength: 4, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A series shorter than MinLength contributes nothing but must not fail.
	d.MustAdd(ts.NewSeries("tiny", []float64{1, 2, 3}))
	before := b.NumSubsequences()
	if err := b.AddSeries(d, d.Len()-1); err != nil {
		t.Fatal(err)
	}
	if b.NumSubsequences() != before {
		t.Fatal("short series contributed windows")
	}
	// Windowless series are not tracked as indexed, so re-streaming one
	// stays an accepted no-op (on a fresh and a reloaded base alike).
	if err := b.AddSeries(d, d.Len()-1); err != nil {
		t.Fatalf("re-adding a windowless series: %v", err)
	}
	if err := b.Validate(d); err != nil {
		t.Fatal(err)
	}
}

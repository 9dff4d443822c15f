package bench

import (
	"strings"
	"testing"
)

// Small configurations keep the harness tests fast while exercising every
// code path; the real experiment sizes are the Default* configurations
// cmd/onexbench runs.

func TestRunE1SmallShape(t *testing.T) {
	rows, err := RunE1(E1Config{
		SeriesCounts: []int{5, 10},
		SeriesLen:    48,
		QueryLen:     12,
		Queries:      3,
		Band:         3,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Windows == 0 || r.Groups == 0 {
			t.Fatalf("empty row %+v", r)
		}
		if r.ONEXQueryUs <= 0 || r.UCRQueryUs <= 0 || r.BruteQueryUs <= 0 {
			t.Fatalf("missing timings %+v", r)
		}
		if r.Top1Agree < 0 || r.Top1Agree > 1 {
			t.Fatalf("bad agreement %+v", r)
		}
		if r.DistRatio < 1-1e-9 {
			t.Fatalf("approximate beat exact: ratio %g", r.DistRatio)
		}
	}
	// Bigger collections -> more candidate windows.
	if rows[1].Windows <= rows[0].Windows {
		t.Fatal("window count did not grow with N")
	}
	out := TableE1(rows)
	if !strings.Contains(out, "speedup_ucr") {
		t.Fatal("table missing header")
	}
}

// TestRunE1Modes exercises the exact and stream query paths: both drive
// the certified search, so their answers must equal the brute-force
// baseline, and stream mode must report a first-update latency.
func TestRunE1Modes(t *testing.T) {
	base := E1Config{
		SeriesCounts: []int{5},
		SeriesLen:    48,
		QueryLen:     12,
		Queries:      3,
		Band:         3,
		Seed:         1,
	}
	for _, mode := range []string{"exact", "stream"} {
		cfg := base
		cfg.Mode = mode
		rows, err := RunE1(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		r := rows[0]
		if r.DistRatio < 1-1e-9 || r.DistRatio > 1+1e-9 {
			t.Fatalf("%s mode is not exact: dist ratio %g", mode, r.DistRatio)
		}
		if mode == "stream" && r.FirstUs <= 0 {
			t.Fatalf("stream mode reported no first-update latency: %+v", r)
		}
		if mode == "exact" && r.FirstUs != 0 {
			t.Fatalf("one-shot mode reported a first-update latency: %+v", r)
		}
	}
	bogus := base
	bogus.Mode = "bogus"
	if _, err := RunE1(bogus); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestRunE1Defaults(t *testing.T) {
	cfg := DefaultE1()
	if len(cfg.SeriesCounts) == 0 || cfg.QueryLen == 0 {
		t.Fatal("default E1 config empty")
	}
}

func TestRunE2SmallShape(t *testing.T) {
	rows, err := RunE2(E2Config{QueryLen: 16, Queries: 4, Band: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Dataset == "" || r.Windows == 0 || r.RefineBudget == 0 {
			t.Fatalf("empty row %+v", r)
		}
		if r.ONEXTop1 < 0 || r.ONEXTop1 > 1 || r.EmbedTop1 < 0 || r.EmbedTop1 > 1 {
			t.Fatalf("bad accuracy %+v", r)
		}
		if r.ONEXRatio < 1-1e-9 || r.EmbedRatio < 1-1e-9 {
			t.Fatalf("impossible ratios %+v", r)
		}
	}
	if !strings.Contains(TableE2(rows), "accuracy_gain_%") {
		t.Fatal("table missing header")
	}
}

func TestRunE3Shapes(t *testing.T) {
	cfg := E3Config{
		SeriesCounts: []int{5, 10},
		STFactors:    []float64{0.5, 2},
		SeriesLen:    32,
		MinLen:       6,
		MaxLen:       10,
		Seed:         3,
	}
	sizes, err := RunE3Sizes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[1].Windows <= sizes[0].Windows {
		t.Fatalf("size sweep wrong: %+v", sizes)
	}
	ths, err := RunE3Thresholds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ths) != 2 {
		t.Fatalf("threshold sweep wrong: %+v", ths)
	}
	// Looser threshold -> fewer or equal groups.
	if ths[1].Groups > ths[0].Groups {
		t.Fatalf("looser ST grew groups: %+v", ths)
	}
	if !strings.Contains(TableE3(sizes), "compaction") {
		t.Fatal("table missing header")
	}
}

func TestRunE4(t *testing.T) {
	rows, err := RunE4(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 indicators x 3 labels
		t.Fatalf("rows = %d", len(rows))
	}
	// Raw-unit recommendations must track indicator scale: MedianIncome
	// thresholds dwarf GrowthRate thresholds.
	var growthBalanced, incomeBalanced float64
	for _, r := range rows {
		if r.Label == "balanced" {
			switch r.Indicator {
			case "GrowthRate":
				growthBalanced = r.ST
			case "MedianIncome":
				incomeBalanced = r.ST
			}
		}
	}
	if incomeBalanced < growthBalanced*100 {
		t.Fatalf("scale tracking broken: income %g vs growth %g", incomeBalanced, growthBalanced)
	}
	norm, err := RunE4Normalized(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range norm {
		if r.ST <= 0 || r.ST > 1.5 {
			t.Fatalf("normalized ST out of range: %+v", r)
		}
	}
	if !strings.Contains(TableE4(rows), "indicator") {
		t.Fatal("table missing header")
	}
}

func TestRunE5Small(t *testing.T) {
	rows, err := RunE5(E5Config{DaysSweep: []int{10, 20}, SamplesPerDay: 12, ST: 0.15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Patterns == 0 {
			t.Fatalf("no patterns found: %+v", r)
		}
		if !r.PeriodHit {
			t.Fatalf("planted daily period not recovered: %+v", r)
		}
		if r.Recall < 0.5 {
			t.Fatalf("recall %g too low: %+v", r.Recall, r)
		}
	}
	if !strings.Contains(TableE5(rows), "period_hit") {
		t.Fatal("table missing header")
	}
}

func TestRunE6BoundHolds(t *testing.T) {
	row, err := RunE6(E6Config{Queries: 6, GroupsPerQuery: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if row.Violations != 0 {
		t.Fatalf("certified bound violated %d times", row.Violations)
	}
	if row.Pairs == 0 {
		t.Fatal("no pairs checked")
	}
	if row.MeanSlackRatio < 0 || row.MeanSlackRatio > 1 {
		t.Fatalf("slack ratio out of range: %+v", row)
	}
	if !strings.Contains(TableE6(row), "violations") {
		t.Fatal("table missing header")
	}
}

func TestPerturbedQueries(t *testing.T) {
	rows, err := RunE1(E1Config{SeriesCounts: []int{3}, SeriesLen: 32, QueryLen: 8, Queries: 2, Band: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("a", "longheader")
	tb.AddRow(1, 2.5)
	tb.AddRow("xx", 0.00001)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatal("separator missing")
	}
	if !strings.Contains(out, "0.00001") {
		t.Fatal("small float formatting wrong")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := NewTable("x", "y")
	tb.AddRow(1, 2.5)
	tb.AddRow("a,b", 3) // comma must be quoted
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "x,y" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(out, `"a,b"`) {
		t.Fatal("comma cell not quoted")
	}
}

func TestTimer(t *testing.T) {
	tm := &Timer{}
	tm.Time(func() {})
	tm.Time(func() {})
	if tm.N() != 2 {
		t.Fatalf("N = %d", tm.N())
	}
	if tm.MeanMicros() < 0 {
		t.Fatal("negative mean")
	}
	empty := &Timer{}
	if empty.MeanMicros() != 0 {
		t.Fatal("empty timer mean should be 0")
	}
}

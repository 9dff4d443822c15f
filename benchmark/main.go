// Command benchmark is the repository's one benchmark: it drives ONEX the
// way an analyst does — over loopback HTTP against internal/server's
// handler with a store-backed onex.DB — through a fixed phase script, and
// prints every metric by name with its unit. See README.md.
//
//	benchmark -workload explore-compact -seed 1            end-to-end metrics
//	benchmark -workload explore-compact -seed 1 -trace 1   per-layer metrics + spans
//	benchmark -aa 10                                       A/A spread of every workload
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// referenceSeconds is the run length the workloads' counts were sized for;
// -seconds scales the repetition counts relative to it. The counts stay
// fixed for a given -seconds: no phase ever measures against a clock.
const referenceSeconds = 30

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	aa       int
	tmpRoot  string
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload name (explore-compact, explore-sparse, ingest-wide)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&opt.seconds, "seconds", referenceSeconds, "nominal run length; scales repetition counts")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
	flag.IntVar(&opt.aa, "aa", 0, "run every workload N times (seeds seed..seed+N-1) and report the spread of each end-to-end metric")
	flag.StringVar(&opt.tmpRoot, "tmp", ".bench_build", "directory (inside the checkout) for store directories and trace files")
	flag.Parse()
	opt.trace = trace != 0

	// A single load generator per core at most (noise rule d).
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, opt, os.Stdout)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, opt options, out io.Writer) int {
	if opt.aa > 0 {
		return runAA(ctx, opt, out)
	}
	rep, err := runOne(ctx, opt, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if !emit(out, rep) {
		return 1
	}
	return 0
}

// runOne executes one run of one workload in a private temp directory that
// is removed on every exit path.
func runOne(ctx context.Context, opt options, log io.Writer) (*report, error) {
	w, ok := workloadByName(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	w = w.scaled(float64(opt.seconds) / referenceSeconds)
	if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opt.tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(log, "workload %s seed %d GOMAXPROCS %d trace %v\n", w.name, opt.seed, runtime.GOMAXPROCS(0), opt.trace)
	var rep *report
	if opt.trace {
		spans := filepath.Join(opt.tmpRoot, fmt.Sprintf("trace-%s-%d.json", w.name, opt.seed))
		rep, err = runTraced(ctx, w, opt.seed, tmp, spans, log)
	} else {
		rep, err = runEndToEnd(ctx, w, opt.seed, tmp, log)
	}
	if err != nil {
		return rep, err
	}
	for _, name := range rep.missing() {
		rep.fail("metric %q was not emitted", name)
	}
	return rep, nil
}

// emit prints the metrics by name and the driver's result line; it reports
// whether the run was correct.
func emit(out io.Writer, rep *report) bool {
	rep.print(out)
	for _, f := range rep.failures {
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]value{}}
	for _, d := range rep.defs {
		if v, ok := rep.values[d.name]; ok {
			result.Metrics[d.name] = value{v, d.unit}
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Fprintf(out, "%s\n", line)
	return result.Correct
}

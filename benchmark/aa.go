package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(xs, n=4)
// does (the "exclusive" method) — the driver's own arithmetic, so the
// spread printed here is the spread the driver will compute.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAA runs every workload opt.aa times as separate processes (peak RSS is
// per process), each with its own seed as the driver does, and prints the
// median, quartiles and relative spread (Q3-Q1)/median of every end-to-end
// metric. It fails when a spread exceeds half the metric's bound: beyond
// that, two honest sets of runs can disagree by more than the bound.
func runAA(ctx context.Context, opt options, out io.Writer) int {
	if opt.aa < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -aa needs at least 2 runs")
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	names := []string{opt.workload}
	if opt.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	exit := 0
	for _, name := range names {
		samples := map[string][]float64{}
		for i := 0; i < opt.aa; i++ {
			seed := opt.seed + int64(i)
			metrics, err := runChild(ctx, self, opt, name, seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			for k, v := range metrics {
				samples[k] = append(samples[k], v)
			}
			fmt.Fprintf(out, "%s seed %d done\n", name, seed)
		}
		fmt.Fprintf(out, "\n%s: %d runs, seeds %d..%d\n", name, opt.aa, opt.seed, opt.seed+int64(opt.aa)-1)
		fmt.Fprintf(out, "%-28s %12s %12s %12s %8s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "maxdev", "bound")
		for _, d := range endToEnd {
			xs := samples[d.name]
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			maxdev := 0.0
			for _, x := range xs {
				maxdev = max(maxdev, math.Abs(x-q2)/q2)
			}
			mark := ""
			switch {
			case d.name == "setup_s": // the driver exempts set-up time from the spread rule
			case spread > d.bound/2:
				mark, exit = " FAIL: over half the bound", 1
			case spread > d.bound/3:
				mark = " over a third of the bound"
			}
			fmt.Fprintf(out, "%-28s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %5.0f%%%s\n",
				d.name, q1, q2, q3, 100*spread, 100*maxdev, 100*d.bound, mark)
		}
	}
	return exit
}

// runChild runs one workload once in a child process and parses the result
// line. An incorrect run is an error.
func runChild(ctx context.Context, self string, opt options, workload string, seed int64) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(opt.seconds), "-tmp", opt.tmpRoot)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var result struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &result); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !result.Correct {
		return nil, fmt.Errorf("run reported incorrect results")
	}
	out := map[string]float64{}
	for k, v := range result.Metrics {
		out[k] = v.Value
	}
	return out, nil
}

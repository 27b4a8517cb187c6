// Command zccbench runs the repository's benchmark suite and records a
// machine-readable performance baseline. It shells out to `go test
// -bench`, parses the standard benchmark output, and atomically writes a
// JSON file (default BENCH_PR15.json) with ns/op, allocations, and custom
// metrics such as the end-to-end events/sec throughput anchor — so a
// later run on the same machine can be diffed against the committed
// baseline.
//
// Examples:
//
//	zccbench                                  # default subset -> BENCH_PR15.json
//	zccbench -bench . -pkg ./...              # everything (slow)
//	zccbench -o /tmp/b.json -count 3
//	zccbench -compare BENCH_PR15.json         # rerun and gate on regression
//
// With -compare FILE the fresh results are diffed against the committed
// baseline instead of written out: an events/sec drop beyond -tolerance
// or an allocs/op growth beyond -alloc-tolerance (any allocation at all
// where the baseline pins zero) exits non-zero, so CI can gate merges on
// the perf anchor.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"flag"

	"zccloud"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "zccbench: %v\n", err)
		os.Exit(1)
	}
}

// defaultBench is the baseline subset: the end-to-end throughput anchor,
// the full-month and deep-queue scheduler runs, the workload generator, the tracer
// micro-benches (including the zero-alloc Nop check), the trace
// encoders (JSONL vs binary columnar), and the power-admission decision
// (zero-alloc, sits on every submission's hot path). Fast enough for CI
// while still covering every layer a perf regression could hide in.
const defaultBench = "EndToEndEventsPerSec|SchedulerMonth|SchedulerDeepQueue|WorkloadGeneration|NopTracer|JSONLTracer|NopLogger|LogfmtLogger|TraceEncode|AdmitDecision"

// BenchResult is one parsed benchmark line.
type BenchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the file layout of BENCH_*.json.
type Baseline struct {
	Generated string        `json:"generated"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Bench     string        `json:"bench_pattern"`
	Packages  []string      `json:"packages"`
	Count     int           `json:"count"`
	Results   []BenchResult `json:"results"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "BENCH_PR15.json", "baseline output file")
		pattern  = fs.String("bench", defaultBench, "benchmark regex passed to go test -bench")
		pkgs     = fs.String("pkg", "zccloud,zccloud/internal/obs,zccloud/internal/tracebin,zccloud/internal/admit", "comma-separated packages to benchmark")
		count    = fs.Int("count", 1, "benchmark repetitions (go test -count)")
		goTool   = fs.String("go", "go", "go tool to invoke")
		compare  = fs.String("compare", "", "compare fresh results against this baseline file instead of writing one; exit non-zero on regression")
		tol      = fs.Float64("tolerance", 0.15, "with -compare: tolerated fractional throughput drop (events/sec)")
		allocTol = fs.Float64("alloc-tolerance", 0.10, "with -compare: tolerated fractional allocs/op growth (zero-alloc baselines tolerate none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	pkgList := strings.Split(*pkgs, ",")
	cmdArgs := []string{"test", "-run", "^$", "-bench", *pattern, "-benchmem",
		"-count", strconv.Itoa(*count)}
	cmdArgs = append(cmdArgs, pkgList...)
	fmt.Fprintf(stderr, "zccbench: %s %s\n", *goTool, strings.Join(cmdArgs, " "))

	cmd := exec.Command(*goTool, cmdArgs...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting go test: %w", err)
	}

	var results []BenchResult
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(stderr, line) // mirror the live benchmark output
		if r, ok := ParseBenchLine(line); ok {
			results = append(results, r)
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go test -bench failed: %w", err)
	}
	if scanErr != nil {
		return scanErr
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results matched %q", *pattern)
	}

	b := Baseline{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Bench:     *pattern,
		Packages:  pkgList,
		Count:     *count,
		Results:   results,
	}
	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
		var base Baseline
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("parsing baseline %s: %w", *compare, err)
		}
		report := Compare(base, b, *tol, *allocTol)
		for _, l := range report.Lines {
			fmt.Fprintln(stdout, l)
		}
		if len(report.Regressions) > 0 {
			for _, r := range report.Regressions {
				fmt.Fprintln(stderr, "REGRESSION:", r)
			}
			return fmt.Errorf("%d regression(s) against %s", len(report.Regressions), *compare)
		}
		fmt.Fprintf(stdout, "no regressions against %s (%d benchmark(s) compared)\n",
			*compare, report.Compared)
		return nil
	}
	f, err := zccloud.CreateAtomic(*out)
	if err != nil {
		return fmt.Errorf("creating baseline file: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Abort()
		return err
	}
	if err := f.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d result(s)\n", *out, len(results))
	return nil
}

// CompareReport is the outcome of diffing a fresh run against a
// committed baseline.
type CompareReport struct {
	Compared    int      // benchmarks present in both runs
	Lines       []string // human-readable per-benchmark diff
	Regressions []string // tolerance violations; empty means pass
}

// Compare diffs cur against base. Only two signals gate: events/sec may
// not drop by more than tol (throughput anchors), and allocs/op may not
// grow by more than allocTol — with zero-alloc baselines treated as a
// hard pin, since any allocation there means an escape-analysis
// regression, not noise. ns/op is reported but never gates: wall-clock
// noise across machines would make it a flaky signal.
func Compare(base, cur Baseline, tol, allocTol float64) CompareReport {
	var rep CompareReport
	baseByName := indexResults(base.Results)
	curByName := indexResults(cur.Results)

	names := make([]string, 0, len(baseByName))
	for name := range baseByName {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		b := baseByName[name]
		c, ok := curByName[name]
		if !ok {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: in baseline but not in this run", name))
			continue
		}
		rep.Compared++
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-40s ns/op %12.1f -> %12.1f (%+.1f%%)",
			name, b.NsPerOp, c.NsPerOp, pctChange(b.NsPerOp, c.NsPerOp)))

		if bv, ok := b.Metrics["events/sec"]; ok {
			cv := c.Metrics["events/sec"]
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-40s events/sec %9.0f -> %9.0f (%+.1f%%)",
				name, bv, cv, pctChange(bv, cv)))
			if cv < bv*(1-tol) {
				rep.Regressions = append(rep.Regressions, fmt.Sprintf(
					"%s: events/sec %.0f -> %.0f, drop beyond %.0f%% tolerance",
					name, bv, cv, tol*100))
			}
		}
		if bv, ok := b.Metrics["allocs/op"]; ok {
			cv := c.Metrics["allocs/op"]
			rep.Lines = append(rep.Lines, fmt.Sprintf("%-40s allocs/op %10.0f -> %10.0f",
				name, bv, cv))
			switch {
			case bv == 0 && cv > 0:
				rep.Regressions = append(rep.Regressions, fmt.Sprintf(
					"%s: allocs/op %.0f, baseline pins zero", name, cv))
			case bv > 0 && cv > bv*(1+allocTol):
				rep.Regressions = append(rep.Regressions, fmt.Sprintf(
					"%s: allocs/op %.0f -> %.0f, growth beyond %.0f%% tolerance",
					name, bv, cv, allocTol*100))
			}
		}
	}
	return rep
}

// indexResults keys results by GOMAXPROCS-stripped name, averaging
// repeated entries (-count > 1) so noise doesn't gate on a single worst
// iteration.
func indexResults(rs []BenchResult) map[string]BenchResult {
	sums := map[string]BenchResult{}
	n := map[string]int{}
	for _, r := range rs {
		name := baseName(r.Name)
		acc := sums[name]
		acc.Name = name
		acc.Iterations += r.Iterations
		acc.NsPerOp += r.NsPerOp
		if acc.Metrics == nil {
			acc.Metrics = map[string]float64{}
		}
		for k, v := range r.Metrics {
			acc.Metrics[k] += v
		}
		sums[name] = acc
		n[name]++
	}
	for name, acc := range sums {
		c := float64(n[name])
		acc.NsPerOp /= c
		for k := range acc.Metrics {
			acc.Metrics[k] /= c
		}
		sums[name] = acc
	}
	return sums
}

// baseName strips the -N GOMAXPROCS suffix go test appends, so runs on
// machines with different core counts still line up.
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func pctChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return (to - from) / from * 100
}

// ParseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFoo-8   	     100	  11905 ns/op	 1632 B/op	 12 allocs/op	 420000 events/sec
//
// The first value pair is always ns/op; any further pairs land in
// Metrics keyed by their unit. Non-benchmark lines return ok=false.
func ParseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	r := BenchResult{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return BenchResult{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[unit] = v
	}
	return r, true
}

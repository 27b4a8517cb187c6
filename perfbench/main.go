// Command perfbench is the repository's end-to-end benchmark. It drives
// the program from outside — the experiments Lab for the paper's table
// sweeps, zccd's HTTP API for open-loop serving — times the calls it
// makes, checks every output, and prints one JSON line of metrics.
//
//	perfbench -workload periodic-sweep -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it makes
// a traced run and prints the per-layer metrics, including the tracing
// overhead, after writing the spans and the program's own telemetry
// snapshots to <out>/trace-<workload>-seed<seed>.json. LAYERS.md lists every metric,
// which layer it belongs to and which end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics -trace 0 prints for the table workloads,
// in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tables_s", "s"},
	{"max_rss_mb", "MB"},
	{"high.latency_p50_ms", "ms"},
	{"high.goodput_rps", "1/s"},
}

// runtimeLayers are the per-layer metrics every workload reports.
var runtimeLayers = []metricDef{
	{"go.alloc_mb", "MB"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"host.speed_factor", "ratio"},
	{"trace.self_sum_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// perLayer lists the metrics -trace 1 prints for the table workloads,
// in BENCHMARK.json order.
var perLayer = append([]metricDef{
	{"experiments.fig5_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.killrequeue_s", "s"},
	{"experiments.table3_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.fig11_s", "s"},
	{"experiments.table6_s", "s"},
	{"experiments.fig13_s", "s"},
	{"workload.generate_s", "s"},
	{"workload.jobs", "count"},
	{"core.simulations", "count"},
	{"core.setup_s", "s"},
	{"core.simulate_s", "s"},
	{"core.collect_s", "s"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.max_queue_len", "count"},
	{"sched.passes", "count"},
	{"sched.ns_per_pass", "ns"},
	{"sched.allocs_per_pass", "count"},
	{"sched.backfilled", "count"},
	{"sched.queue_peak", "count"},
	{"lab.market_analysis_s", "s"},
	{"miso.records", "count"},
	{"miso.records_per_s", "1/s"},
	{"self.bench_s", "s"},
	{"self.experiments_s", "s"},
	{"self.workload_s", "s"},
	{"self.market_s", "s"},
	{"self.core_setup_s", "s"},
	{"self.core_simulate_s", "s"},
	{"self.core_collect_s", "s"},
}, runtimeLayers...)

// openLoopEndToEnd and openLoopPerLayer are zccd-open-loop's metrics.
// BENCHMARK.json does not list that workload (see LAYERS.md), so it
// does not list these either.
var (
	openLoopEndToEnd = []metricDef{
		{"setup_s", "s"},
		{"tables_s", "s"},
		{"max_rss_mb", "MB"},
		{"low.latency_p50_ms", "ms"},
		{"low.latency_p95_ms", "ms"},
		{"high.latency_p50_ms", "ms"},
		{"high.latency_p95_ms", "ms"},
		{"high.goodput_rps", "1/s"},
	}
	openLoopPerLayer = append([]metricDef{
		{"serve.post_ms.p50", "ms"},
		{"serve.post_ms.p95", "ms"},
		{"serve.get_ms.p50", "ms"},
		{"serve.queue_wait_ms.p50", "ms"},
		{"serve.queue_wait_ms.p95", "ms"},
		{"serve.exec_ms.p50", "ms"},
		{"serve.exec_ms.p95", "ms"},
		{"serve.exec_traced_ms.p50", "ms"},
		{"serve.shed", "count"},
		{"serve.polls", "count"},
		{"persist.journal_records", "count"},
		{"persist.journal_bytes", "bytes"},
		{"persist.records_per_run", "count"},
		{"tracebin.traces", "count"},
		{"tracebin.trace_bytes", "bytes"},
		{"tracebin.bytes_per_event", "bytes"},
		{"admit.decisions", "count"},
		{"client.lag_p95_ms", "ms"},
		{"client.sent", "count"},
		{"split.lag_ms", "ms"},
		{"split.ingress_ms", "ms"},
		{"split.queue_ms", "ms"},
		{"split.exec_ms", "ms"},
	}, runtimeLayers...)
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	out      string // directory for run data and trace output
}

// report is what one workload run measured.
type report struct {
	attempted int
	failed    int      // failed + shed requests
	problems  []string // output-check mismatches, each also a failure
	e2e       map[string]float64
	layer     map[string]float64
	// speed is the calibration factor the timings were scaled by.
	speed float64
	// layerTable renders the traced run's self times; dump holds the
	// spans and the program's telemetry snapshots written to disk.
	layerTable string
	dump       map[string]any
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64),
		dump: make(map[string]any)}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is a runner and the metrics it prints; rec is nil when
// tracing is off.
type workload struct {
	run        func(cfg config, rec *recorder) (*report, error)
	e2e, layer []metricDef
}

var workloads = map[string]workload{
	"periodic-sweep": {func(cfg config, rec *recorder) (*report, error) {
		return runTables(periodicSweep, cfg, rec)
	}, endToEnd, perLayer},
	"stranded-power": {func(cfg config, rec *recorder) (*report, error) {
		return runTables(strandedPower, cfg, rec)
	}, endToEnd, perLayer},
	"zccd-open-loop": {runOpenLoop, openLoopEndToEnd, openLoopPerLayer},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: periodic-sweep, stranded-power or zccd-open-loop")
	seed := fs.Int64("seed", defaultSeed, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run data and trace output")
	digests := fs.Int("digests", 0, "print the table digests of the first N Labs of the default seed's stream for -workload, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *digests > 0 {
		for _, ts := range []tableSweep{periodicSweep, strandedPower} {
			if ts.name == *workload {
				return printDigests(stdout, ts, *digests)
			}
		}
		return fmt.Errorf("-digests needs a table workload")
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %gs, trace %d; nproc %d, GOMAXPROCS %d, %s\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var rep *report
	var defs []metricDef
	var values map[string]float64
	if *trace == 0 {
		r, err := wl.run(cfg, nil)
		if err != nil {
			return err
		}
		r.e2e["max_rss_mb"] = maxRSSMB()
		fmt.Fprintf(os.Stderr, "perfbench: host speed factor %.4f (timings are wall time × factor)\n", r.speed)
		rep, defs, values = r, wl.e2e, r.e2e
	} else {
		rec := newRecorder()
		r, err := wl.run(cfg, rec)
		if err != nil {
			return err
		}
		r.dump["spans"] = rec.snapshot()
		r.dump["layers"] = r.layer
		if err := writeJSON(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed)), r.dump); err != nil {
			return err
		}
		fmt.Fprint(stdout, r.layerTable)
		rep, defs, values = r, wl.layer, r.layer
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", p)
	}
	return printResult(stdout, rep, defs, values)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, rep *report, defs []metricDef, values map[string]float64) error {
	metrics := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	for name := range values {
		if !hasMetric(defs, name) {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed + len(rep.problems), metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// maxRSSMB returns the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta reports the Go runtime's allocation and GC work between two
// MemStats readings.
func memDelta(layer map[string]float64, before, after *runtime.MemStats) {
	layer["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	layer["go.mallocs"] = float64(after.Mallocs - before.Mallocs)
	layer["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layer["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

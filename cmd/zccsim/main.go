// Command zccsim runs one Mira-ZCCloud scheduling simulation and prints
// the metrics the paper reports, followed by a telemetry summary.
//
// Examples:
//
//	zccsim -days 28                                # Mira only, 1xWorkload
//	zccsim -days 28 -zc-factor 1 -zc-duty 0.5      # + 1xMira ZCCloud @50%
//	zccsim -days 28 -zc-factor 2 -scale 1.5 -seed 7
//	zccsim -days 7 -trace t.jsonl -metrics m.json  # with event trace
//	zccsim -swf trace.swf                          # replay an SWF log
//	zccsim -days 7 -zc-factor 1 -kill-requeue -mtbf 24 -brownout 0.2
//	zccsim -days 28 -snapshot s.json -snapshot-at 7   # pause at day 7
//	zccsim -days 28 -restore s.json                   # ...and finish later
//
// A run is crash-safe: SIGINT/SIGTERM pauses it at the next event
// boundary and, when -snapshot is set, writes a checksummed snapshot that
// -restore resumes byte-identically. -check validates scheduler
// invariants after every event.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"zccloud"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "zccsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 42, "random seed")
		days     = fs.Float64("days", 28, "workload span in days")
		scale    = fs.Float64("scale", 1, "workload scale (the paper's NxWorkload)")
		burst    = fs.Bool("burst", false, "burst workload shape (2x node-hours during ZC uptime)")
		nodes    = fs.Int("mira-nodes", 49152, "base system size in nodes")
		zcFactor = fs.Float64("zc-factor", 0, "ZCCloud size as a multiple of Mira (0 = no ZCCloud)")
		zcDuty   = fs.Float64("zc-duty", 0.5, "ZCCloud periodic duty factor in (0,1]")
		zcPhase  = fs.Float64("zc-phase", 20, "daily hour the ZC window opens")
		killMode = fs.Bool("kill-requeue", false, "non-oracle mode: kill and resubmit jobs at window end")
		util     = fs.Float64("utilization", 0, "target base utilization (0 = Table I's 0.84)")
		swfPath  = fs.String("swf", "", "replay an SWF trace file instead of generating a workload")
		procsPer = fs.Int("procs-per-node", 16, "SWF processors per scheduler node (with -swf)")

		mtbf        = fs.Float64("mtbf", 0, "mean time between node failures in hours (0 = no failures)")
		faultSeed   = fs.Int64("fault-seed", 0, "fault injector seed (0 = derive from -seed)")
		brownout    = fs.Float64("brownout", 0, "per-window brownout probability in [0,1]")
		forecastErr = fs.Float64("forecast-err", 0, "window forecast-error standard deviation in hours")
		retryLimit  = fs.Int("retry-limit", 0, "kill/requeue retries before a job is abandoned (0 = unlimited)")
		backoff     = fs.Float64("backoff", 0, "base retry backoff in hours after a kill; doubles per retry (0 = requeue immediately)")
		backoffJit  = fs.Bool("backoff-jitter", false, "full-jitter retry backoff: delay is a seeded uniform draw from (0, base*2^k]")

		check   = fs.Bool("check", false, "validate scheduler invariants after every event")
		snapOut = fs.String("snapshot", "", "write a resume snapshot to this file when the run pauses")
		snapAt  = fs.Float64("snapshot-at", 0, "deterministically pause at this simulated day (requires -snapshot)")
		restore = fs.String("restore", "", "resume from a snapshot file (pass the original run's flags)")

		traceOut   = fs.String("trace", "", "write a simulation event trace to this file (.zct = binary columnar, .gz = gzipped JSONL, else JSONL)")
		httpAddr   = fs.String("http", "", "serve live /status, /metrics, and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
		httpLinger = fs.Duration("http-linger", 0, "keep the -http server up this long after the run completes (Ctrl-C ends it early)")
		spans      = fs.Bool("spans", false, "time run phases (wall clock) and print a span summary")
		metricsOut = fs.String("metrics", "", "write a JSON metrics snapshot to this file")
		logLevel   = fs.String("log-level", "", "emit structured logs to stderr at this threshold: debug, info, warn, or error (empty = no logs)")
		logFormat  = fs.String("log-format", "logfmt", "structured log encoding: logfmt or json")
		runID      = fs.String("run-id", "", "correlation ID bound to every log line and stamped on every trace event")
		progress   = fs.Bool("progress", false, "report simulation progress and rate to stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		version    = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *version {
		fmt.Fprintln(stdout, "zccsim", zccloud.BuildInfo())
		return nil
	}
	if *snapAt > 0 && *snapOut == "" {
		return fmt.Errorf("-snapshot-at needs -snapshot to name the snapshot file")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("creating CPU profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// SIGINT/SIGTERM pause the simulation cooperatively: the flag is
	// polled between events, so the run always stops in a snapshottable
	// state.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigc:
			interrupted.Store(true)
			fmt.Fprintln(stderr, "zccsim: interrupt received; pausing at the next event boundary")
		case <-done:
		}
	}()

	var zc zccloud.AvailabilityModel
	if *zcFactor > 0 {
		if *zcDuty >= 1 {
			zc = zccloud.AlwaysOn{}
		} else {
			zc = zccloud.NewPeriodic(*zcDuty, zccloud.Time(*zcPhase)*zccloud.Hour)
		}
	}

	// A restored run replays the same workload, so its stdout matches an
	// uninterrupted run's.
	var tr *zccloud.Trace
	if *swfPath != "" {
		f, err := os.Open(*swfPath)
		if err != nil {
			return fmt.Errorf("opening SWF trace: %w", err)
		}
		var header zccloud.SWFHeader
		var skipped zccloud.SWFSkipReport
		tr, header, skipped, err = zccloud.ParseSWF(f, zccloud.SWFOptions{
			ProcsPerNode: *procsPer,
			SkipFailed:   true,
			File:         *swfPath,
		})
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "replaying %s: %d jobs (%d skipped)", *swfPath, len(tr.Jobs), skipped.Count)
		if mn := header.MaxNodes(); mn > 0 {
			fmt.Fprintf(stdout, ", trace machine %d nodes", mn)
		}
		fmt.Fprintln(stdout)
		for _, s := range skipped.Samples {
			fmt.Fprintf(stdout, "  skipped %s\n", s)
		}
		if more := skipped.Count - len(skipped.Samples); more > 0 && len(skipped.Samples) > 0 {
			fmt.Fprintf(stdout, "  ... and %d more\n", more)
		}
	} else {
		wcfg := zccloud.WorkloadConfig{
			Seed:              *seed,
			Days:              *days,
			SystemNodes:       *nodes,
			TargetUtilization: *util,
			Scale:             *scale,
		}
		if *burst {
			if zc == nil {
				return fmt.Errorf("-burst requires -zc-factor > 0")
			}
			wcfg.Shape = zccloud.Burst
			horizon := zccloud.Time(*days) * zccloud.Day
			wcfg.UptimeWindows = materialize(zc, horizon)
		}
		var err error
		tr, err = zccloud.GenerateWorkload(wcfg)
		if err != nil {
			return fmt.Errorf("generating workload: %v", err)
		}
	}
	st := zccloud.SummarizeWorkload(tr, *nodes)
	fmt.Fprintf(stdout, "workload: %d jobs over %.0f days, %.0f M node-hours (%.1f%% of Mira)\n",
		st.Jobs, st.Days, st.NodeHours/1e6, 100*st.Utilization)

	obsOpt := zccloud.ObsOptions{
		Metrics:   zccloud.NewMetricsRegistry(),
		Interrupt: interrupted.Load,
		Check:     *check,
		RunID:     *runID,
	}
	if *logLevel != "" {
		lv, err := zccloud.ParseLogLevel(*logLevel)
		if err != nil {
			return err
		}
		format, err := zccloud.ParseLogFormat(*logFormat)
		if err != nil {
			return err
		}
		obsOpt.Log = zccloud.NewLogger(stderr, lv, format)
	}
	if *spans || *httpAddr != "" {
		obsOpt.Timings = zccloud.NewSpanTimings()
	}
	var intro *zccloud.Introspection
	if *httpAddr != "" {
		obsOpt.Status = zccloud.NewRunStatus()
		obsOpt.Status.SetPhase("setup")
		ts := zccloud.NewTimeSeries(time.Second, 600,
			zccloud.SampleStatus(obsOpt.Status, obsOpt.Metrics))
		ts.Start()
		defer ts.Stop()
		in, err := zccloud.StartIntrospection(*httpAddr, obsOpt.Metrics, obsOpt.Status, obsOpt.Timings, ts)
		if err != nil {
			return fmt.Errorf("starting introspection server: %w", err)
		}
		intro = in
		// Graceful shutdown: let in-flight scrapes finish (bounded),
		// then close. Ctrl-C during -http-linger lands here too.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := intro.Shutdown(ctx); err != nil {
				fmt.Fprintf(stderr, "zccsim: introspection shutdown: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "zccsim: introspection server on http://%s\n", intro.Addr())
	}
	var traceFile *zccloud.TraceSink
	if *traceOut != "" {
		tf, err := zccloud.CreateTraceSink(*traceOut)
		if err != nil {
			return fmt.Errorf("creating trace output: %w", err)
		}
		defer tf.Abort() // no-op once committed
		traceFile = tf
		obsOpt.Tracer = tf
	}
	// commitTrace lands the event trace atomically; called on success and
	// on a deliberate pause, so a partial trace is still a usable prefix.
	commitTrace := func() error {
		if traceFile == nil {
			return nil
		}
		t := traceFile
		traceFile = nil
		if err := t.Commit(); err != nil {
			return fmt.Errorf("writing trace: %v", err)
		}
		return nil
	}
	if *progress {
		obsOpt.Progress = zccloud.NewProgressReporter(stderr, 5*time.Second)
		obsOpt.Progress.Phase("sim")
	}

	// Fault injection: any fault flag arms the injector. Failures target
	// the ZC partition when one exists, the base system otherwise.
	var fc *zccloud.FaultConfig
	if *mtbf > 0 || *brownout > 0 || *forecastErr > 0 || *retryLimit > 0 || *backoff > 0 {
		fc = &zccloud.FaultConfig{
			Seed:          *faultSeed,
			ForecastErrSD: zccloud.Time(*forecastErr) * zccloud.Hour,
			BrownoutProb:  *brownout,
			RetryLimit:    *retryLimit,
			Backoff:       zccloud.Time(*backoff) * zccloud.Hour,
			BackoffJitter: *backoffJit,
		}
		if fc.Seed == 0 {
			fc.Seed = *seed + 1
		}
		if *mtbf > 0 {
			part := zccloud.MiraPartitionName
			if *zcFactor > 0 {
				part = zccloud.ZCPartitionName
			}
			per := *nodes / 64
			if per < 1 {
				per = 1
			}
			fc.Nodes = map[string]zccloud.NodeFailureConfig{
				part: {MTBF: zccloud.Time(*mtbf) * zccloud.Hour, NodesPerFailure: per},
			}
		}
	}

	runCfg := zccloud.RunConfig{
		Trace: tr,
		System: zccloud.SystemConfig{
			MiraNodes: *nodes,
			ZCFactor:  *zcFactor,
			ZCAvail:   zc,
			NonOracle: *killMode,
			Faults:    fc,
		},
		Obs:    obsOpt,
		StopAt: zccloud.Time(*snapAt) * zccloud.Day,
	}

	var m *zccloud.Metrics
	var err error
	if *restore != "" {
		snap, lerr := zccloud.LoadSnapshot(*restore)
		if lerr != nil {
			return lerr
		}
		fmt.Fprintf(stderr, "zccsim: restored %s: %d of %d jobs arrived; resuming to deadline %.1f days\n",
			*restore, len(snap.Jobs), len(tr.Jobs), float64(snap.Deadline)/float64(zccloud.Day))
		m, err = zccloud.ResumeSimulation(runCfg, snap)
	} else {
		m, err = zccloud.Simulate(runCfg)
	}
	if err != nil {
		var intr *zccloud.InterruptedRun
		if !errors.As(err, &intr) {
			return fmt.Errorf("simulating: %v", err)
		}
		if *snapOut == "" {
			return fmt.Errorf("run interrupted with no -snapshot path; simulation state was lost")
		}
		if serr := zccloud.SaveSnapshot(*snapOut, intr.Snapshot); serr != nil {
			return serr
		}
		if terr := commitTrace(); terr != nil {
			return terr
		}
		fmt.Fprintf(stderr, "zccsim: run paused; snapshot written to %s\n", *snapOut)
		fmt.Fprintf(stderr, "zccsim: resume with the same flags plus -restore %s\n", *snapOut)
		if *snapAt > 0 && !interrupted.Load() {
			return nil // a deliberate -snapshot-at pause is a success
		}
		return fmt.Errorf("interrupted")
	}

	fmt.Fprintf(stdout, "\ncompleted %d jobs (%d unfinished, %d unrunnable); makespan %.1f days\n",
		m.Completed, m.Unfinished, m.Unrunnable, m.MakespanDays)
	fmt.Fprintf(stdout, "avg wait %.2f h (p50 %.2f, p90 %.2f, max %.1f)\n",
		m.AvgWaitHrs, m.P50WaitHrs, m.P90WaitHrs, m.MaxWaitHrs)
	fmt.Fprintf(stdout, "capability jobs %.2f h, capacity jobs %.2f h\n",
		m.AvgWaitCapabilityHrs, m.AvgWaitCapacityHrs)
	if *zcFactor > 0 {
		fmt.Fprintf(stdout, "on-time %.2f h (%d jobs), late %.2f h (%d jobs)\n",
			m.AvgWaitOnTimeHrs, m.OnTimeJobs, m.AvgWaitLateHrs, m.LateJobs)
		fmt.Fprintf(stdout, "ZCCloud carried %.1f%% of delivered node-hours\n", 100*m.ZCShareOfWork)
	}
	fmt.Fprintf(stdout, "throughput %.1f jobs/day\n", m.ThroughputJobsPerDay)
	parts := make([]string, 0, len(m.UtilizationByPartition))
	for part := range m.UtilizationByPartition {
		parts = append(parts, part)
	}
	sort.Strings(parts)
	for _, part := range parts {
		fmt.Fprintf(stdout, "utilization[%s] = %.1f%%\n", part, 100*m.UtilizationByPartition[part])
	}
	if fc != nil {
		fmt.Fprintf(stdout, "faults: %d node failures, %d brownouts, %d kills, %d abandoned\n",
			m.NodeFailures, m.Brownouts, m.Killed, m.Abandoned)
		if m.BackingOff > 0 {
			fmt.Fprintf(stdout, "retry starvation: %d jobs still backing off at the horizon\n",
				m.BackingOff)
		}
	}
	fmt.Fprintln(stdout, "\nwait by job size:")
	for _, b := range m.AvgWaitBySize {
		if b.Jobs == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %12s nodes: %6d jobs, %8.2f h\n", b.Label, b.Jobs, b.AvgWaitHrs)
	}

	obsOpt.Status.SetPhase("done")
	snap := obsOpt.Metrics.Snapshot()
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, zccloud.MetricsSummaryTable(snap).Text())
	if *spans {
		fmt.Fprintln(stdout, zccloud.SpanSummaryTable(obsOpt.Timings.Snapshot()).Text())
	}

	if err := commitTrace(); err != nil {
		return err
	}
	if *metricsOut != "" {
		f, err := zccloud.CreateAtomic(*metricsOut)
		if err != nil {
			return fmt.Errorf("creating metrics output: %w", err)
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Abort()
			return err
		}
		if err := f.Commit(); err != nil {
			return err
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("creating heap profile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	// Hold the introspection server open so a scraper (or a human with a
	// browser) can still read the finished run's /status and /metrics.
	if intro != nil && *httpLinger > 0 {
		fmt.Fprintf(stderr, "zccsim: run complete; serving introspection for up to %s more (Ctrl-C to stop)\n", *httpLinger)
		deadline := time.Now().Add(*httpLinger)
		for time.Now().Before(deadline) && !interrupted.Load() {
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

func materialize(m zccloud.AvailabilityModel, horizon zccloud.Time) []zccloud.Window {
	var out []zccloud.Window
	t := zccloud.Time(0)
	for t < horizon {
		w, ok := m.NextUp(t)
		if !ok || w.Start >= horizon {
			break
		}
		if w.End > horizon {
			w.End = horizon
		}
		out = append(out, w)
		t = w.End
	}
	return out
}

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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"zccloud"
	"zccloud/cmd/internal/harness"
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

		snapOut    = fs.String("snapshot", "", "write a resume snapshot to this file when the run pauses")
		snapAt     = fs.Float64("snapshot-at", 0, "deterministically pause at this simulated day (requires -snapshot)")
		restore    = fs.String("restore", "", "resume from a snapshot file (pass the original run's flags)")
		httpLinger = fs.Duration("http-linger", 0, "keep the -http server up this long after the run completes (Ctrl-C ends it early)")
	)
	tf := harness.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if tf.Version {
		fmt.Fprintln(stdout, "zccsim", zccloud.BuildInfo())
		return nil
	}
	if *snapAt > 0 && *snapOut == "" {
		return fmt.Errorf("-snapshot-at needs -snapshot to name the snapshot file")
	}

	// SIGINT/SIGTERM pause the simulation cooperatively: the latch is
	// polled between events, so the run always stops in a snapshottable
	// state.
	h, err := harness.Start("zccsim", tf, stderr)
	if err != nil {
		return err
	}
	defer h.Close()
	h.Obs.Progress.Phase("sim")

	var zc zccloud.AvailabilityModel
	if *zcFactor > 0 {
		zc = zccloud.DutyAvailability(*zcDuty, zccloud.Time(*zcPhase)*zccloud.Hour)
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
			wcfg.UptimeWindows = zccloud.Materialize(zc, 0, zccloud.Time(*days)*zccloud.Day)
		}
		tr, err = zccloud.GenerateWorkload(wcfg)
		if err != nil {
			return fmt.Errorf("generating workload: %v", err)
		}
	}
	st := zccloud.SummarizeWorkload(tr, *nodes)
	fmt.Fprintf(stdout, "workload: %d jobs over %.0f days, %.0f M node-hours (%.1f%% of Mira)\n",
		st.Jobs, st.Days, st.NodeHours/1e6, 100*st.Utilization)

	// Fault injection: any fault flag arms the injector.
	if *faultSeed == 0 {
		*faultSeed = *seed + 1
	}
	fc := zccloud.FaultKnobs{
		Seed:             *faultSeed,
		MTBFHours:        *mtbf,
		BrownoutProb:     *brownout,
		ForecastErrHours: *forecastErr,
		RetryLimit:       *retryLimit,
		BackoffHours:     *backoff,
		BackoffJitter:    *backoffJit,
	}.Config(*nodes, *zcFactor > 0)

	runCfg := zccloud.RunConfig{
		Trace: tr,
		System: zccloud.SystemConfig{
			MiraNodes: *nodes,
			ZCFactor:  *zcFactor,
			ZCAvail:   zc,
			NonOracle: *killMode,
			Faults:    fc,
		},
		Obs:    h.Obs,
		StopAt: zccloud.Time(*snapAt) * zccloud.Day,
	}

	var m *zccloud.Metrics
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
		if terr := h.CommitTrace(); terr != nil {
			return terr
		}
		fmt.Fprintf(stderr, "zccsim: run paused; snapshot written to %s\n", *snapOut)
		fmt.Fprintf(stderr, "zccsim: resume with the same flags plus -restore %s\n", *snapOut)
		if *snapAt > 0 && !h.Interrupted() {
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

	fmt.Fprintln(stdout)
	if err := h.Finish(func(tb *zccloud.ResultTable) { fmt.Fprintln(stdout, tb.Text()) }); err != nil {
		return err
	}
	h.Linger(*httpLinger)
	return nil
}

// Command zccexp runs the paper's experiments — every table and figure of
// the evaluation — and renders the results as text or markdown, followed
// by a telemetry summary of the scheduler and engine work done.
//
// Examples:
//
//	zccexp -quick                      # all experiments, reduced preset
//	zccexp -quick -ids fig5,fig7       # a subset
//	zccexp -markdown -o EXPERIMENTS.md # paper-scale, writes markdown
//	zccexp -quick -trace t.jsonl -metrics m.json   # event trace + metrics
//	zccexp -quick -progress            # progress lines on stderr
//	zccexp -quick -run-dir run/        # journaled, crash-safe sweep
//	zccexp -quick -resume run/         # ...picks up where it stopped
//
// Every experiment ("cell") runs under a panic guard and optional
// watchdog (-cell-timeout); its table is rendered as soon as it settles,
// and a failed cell is reported at the end without stopping the others.
// With -run-dir, each outcome is also journaled to the run directory.
// SIGINT/SIGTERM stops the sweep at a safe point, flushes the completed
// tables, and exits nonzero; -resume skips the cells a journaled sweep
// completed and re-runs only failures.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"zccloud"
	"zccloud/cmd/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "zccexp: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zccexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "reduced preset (28-day workload, 60-day market, 60 sites)")
		seed     = fs.Int64("seed", 42, "random seed")
		ids      = fs.String("ids", "", "comma-separated experiment ids (empty = all)")
		markdown = fs.Bool("markdown", false, "render markdown instead of text")
		out      = fs.String("o", "-", "output file (\"-\" for stdout)")
		list     = fs.Bool("list", false, "list experiment ids and exit")

		days       = fs.Float64("days", 0, "override workload span in days (0 = preset)")
		marketDays = fs.Float64("market-days", 0, "override market dataset span in days (0 = preset)")
		sites      = fs.Int("sites", 0, "override wind-site count (0 = preset)")
		miraNodes  = fs.Int("mira-nodes", 0, "override base system size in nodes (0 = preset)")

		mtbf       = fs.Float64("mtbf", 0, "resilience: single MTBF in hours instead of the default sweep (0 = sweep)")
		faultSeed  = fs.Int64("fault-seed", 0, "resilience: fault injector seed (0 = derive from -seed)")
		brownout   = fs.Float64("brownout", -1, "resilience: per-window brownout probability (-1 = preset)")
		retryLimit = fs.Int("retry-limit", 0, "resilience: kill/requeue retries before abandonment (0 = unlimited)")

		runDir      = fs.String("run-dir", "", "journal each cell to this directory (crash-safe, resumable sweep)")
		resumeDir   = fs.String("resume", "", "resume the sweep in this run directory (skips completed cells)")
		cellTimeout = fs.Duration("cell-timeout", 0, "per-experiment watchdog budget, e.g. 10m (0 = none)")
		stopAfter   = fs.Int("interrupt-after", 0, "stop the sweep after N executed cells (deterministic interruption, for testing)")
	)
	tf := harness.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if tf.Version {
		fmt.Fprintln(stdout, "zccexp", zccloud.BuildInfo())
		return nil
	}
	if *list {
		for _, e := range zccloud.Experiments {
			fmt.Fprintf(stdout, "%-12s %-9s %s\n", e.ID, e.Kind, e.Title)
		}
		return nil
	}
	if *runDir != "" && *resumeDir != "" && *runDir != *resumeDir {
		return fmt.Errorf("-run-dir and -resume name different directories")
	}
	dir, doResume := *runDir, false
	if *resumeDir != "" {
		dir, doResume = *resumeDir, true
	}
	if *stopAfter > 0 && dir == "" {
		return fmt.Errorf("-interrupt-after needs a journaled sweep (-run-dir)")
	}
	selected := zccloud.Experiments
	if *ids != "" {
		selected = nil
		for _, id := range strings.Split(*ids, ",") {
			e, err := zccloud.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				return fmt.Errorf("unknown experiment id %q (use -list)", strings.TrimSpace(id))
			}
			selected = append(selected, e)
		}
	}

	opt := zccloud.ExperimentOptions{Seed: *seed}
	if *quick {
		opt = zccloud.QuickOptions(*seed)
	}
	if *days > 0 {
		opt.WorkloadDays = *days
	}
	if *marketDays > 0 {
		opt.MarketDays = *marketDays
	}
	if *sites > 0 {
		opt.WindSites = *sites
	}
	if *miraNodes > 0 {
		opt.MiraNodes = *miraNodes
	}
	if *mtbf > 0 {
		opt.FaultMTBFHours = *mtbf
	}
	if *faultSeed != 0 {
		opt.FaultSeed = *faultSeed
	}
	if *brownout >= 0 {
		opt.BrownoutProb = *brownout
	}
	if *retryLimit > 0 {
		opt.RetryLimit = *retryLimit
	}

	// SIGINT/SIGTERM stop the run cooperatively at the next safe point:
	// between cells, or mid-simulation at an event boundary.
	h, err := harness.Start("zccexp", tf, stderr)
	if err != nil {
		return err
	}
	defer h.Close()

	w := io.Writer(stdout)
	var outFile *zccloud.AtomicFile
	if *out != "-" {
		af, err := zccloud.CreateAtomic(*out)
		if err != nil {
			return fmt.Errorf("creating output file: %w", err)
		}
		defer af.Abort() // no-op once committed
		w = af
		outFile = af
	}

	if *markdown {
		fmt.Fprintf(w, "# ZCCloud experiment results\n\n")
		fmt.Fprintf(w, "Generated by `zccexp` (seed %d, %s preset). Paper: Yang & Chien, "+
			"\"ZCCloud: Exploring Wasted Green Power for High-Performance Computing\", IPPS 2016.\n\n",
			*seed, presetName(*quick))
	}
	render := func(tb *zccloud.ResultTable) {
		if *markdown {
			fmt.Fprintln(w, tb.Markdown())
		} else {
			fmt.Fprintln(w, tb.Text())
		}
	}

	var executed atomic.Int64
	res, err := zccloud.RunSweep(zccloud.SweepConfig{
		Dir:         dir,
		Options:     opt,
		Obs:         h.Obs,
		Experiments: selected,
		Resume:      doResume,
		CellTimeout: *cellTimeout,
		Interrupt: func() bool {
			return h.Interrupted() || (*stopAfter > 0 && executed.Load() >= int64(*stopAfter))
		},
		OnCell: func(rec zccloud.SweepCellRecord, skipped bool) {
			switch {
			case skipped:
				fmt.Fprintf(stderr, "%-12s skipped (completed in a previous run)\n", rec.ID)
			case rec.Status == zccloud.SweepCellOK:
				fmt.Fprintf(stderr, "%-12s ok in %v\n", rec.ID, cellElapsed(rec))
			default:
				fmt.Fprintf(stderr, "%-12s %s in %v: %s\n", rec.ID, rec.Status, cellElapsed(rec), rec.Error)
				if dir == "" {
					// No journal keeps the stack: show it here.
					fmt.Fprint(stderr, rec.Stack)
				}
			}
			if !skipped {
				executed.Add(1)
			}
			if rec.Status == zccloud.SweepCellOK {
				render(rec.Table)
			}
		},
	})
	interrupted := errors.Is(err, zccloud.ErrSweepInterrupted)
	if err != nil && !interrupted {
		return err
	}
	// An interrupted sweep still flushes its completed tables.
	if err := h.Finish(render); err != nil {
		return err
	}
	if outFile != nil {
		if err := outFile.Commit(); err != nil {
			return err
		}
	}
	if interrupted {
		fmt.Fprintf(stderr, "zccexp: sweep interrupted; %d completed table(s) flushed\n", len(res.Tables))
		if dir != "" {
			fmt.Fprintf(stderr, "zccexp: resume with the same flags plus -resume %s\n", dir)
		}
		return fmt.Errorf("interrupted")
	}
	if len(res.Failed) > 0 {
		msg := fmt.Sprintf("%d cell(s) failed (%s)", len(res.Failed), strings.Join(res.Failed, ", "))
		if dir != "" {
			msg += fmt.Sprintf("; inspect %s/cells.jsonl and re-run with -resume %s", dir, dir)
		}
		return errors.New(msg)
	}
	return nil
}

func cellElapsed(rec zccloud.SweepCellRecord) time.Duration {
	return (time.Duration(rec.ElapsedMS) * time.Millisecond).Round(time.Millisecond)
}

func presetName(quick bool) string {
	if quick {
		return "quick"
	}
	return "paper-scale"
}

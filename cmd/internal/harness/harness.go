// Package harness is the run plumbing that zccsim and zccexp share: the
// telemetry flags, the SIGINT/SIGTERM latch, CPU and heap profiles, the
// logger and span timings, the introspection server, the atomic trace
// sink and the atomic -metrics write. zccd and zccagent build their
// logger through Logger.
//
// A main registers the flags, calls Start once they are parsed, defers
// Close, and ends a successful run with Finish:
//
//	tf := harness.Register(fs)
//	...
//	h, err := harness.Start("zccsim", tf, stderr)
//	if err != nil {
//		return err
//	}
//	defer h.Close()
//	... simulate with h.Obs ...
//	return h.Finish(render)
package harness

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"zccloud/internal/experiments"
	"zccloud/internal/obs"
	"zccloud/internal/persist"
	"zccloud/internal/tracebin"
)

// Flags holds the values of the shared telemetry flags.
type Flags struct {
	Trace, HTTP, Metrics            string
	LogLevel, LogFormat, RunID      string
	CPUProfile, MemProfile          string
	Spans, Progress, Check, Version bool
}

// Register adds the shared telemetry flags to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a simulation event trace to this file (.zct = binary columnar, .gz = gzipped JSONL, else JSONL)")
	fs.StringVar(&f.HTTP, "http", "", "serve live /status, /metrics, and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
	fs.BoolVar(&f.Spans, "spans", false, "time run phases (wall clock) and print a span summary")
	fs.StringVar(&f.Metrics, "metrics", "", "write a JSON metrics snapshot to this file")
	fs.StringVar(&f.LogLevel, "log-level", "", "emit structured logs to stderr at this threshold: debug, info, warn, or error (empty = no logs)")
	fs.StringVar(&f.LogFormat, "log-format", "logfmt", "structured log encoding: logfmt or json")
	fs.StringVar(&f.RunID, "run-id", "", "correlation ID bound to every log line and stamped on every trace event")
	fs.BoolVar(&f.Progress, "progress", false, "report progress and rate to stderr")
	fs.BoolVar(&f.Check, "check", false, "validate scheduler invariants after every event")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.BoolVar(&f.Version, "version", false, "print build information and exit")
	return f
}

// Logger builds the structured logger for a level and format flag pair.
// An empty level means no logging: it returns the nil (disabled) logger.
func Logger(w io.Writer, level, format string) (*obs.Logger, error) {
	if level == "" {
		return nil, nil
	}
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	f, err := obs.ParseLogFormat(format)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(w, lv, f), nil
}

// Run is one CLI run's telemetry, from Start to Close.
type Run struct {
	// Obs carries the telemetry the flags asked for into the simulation.
	// Metrics is always set, since it backs the summary table, and
	// Interrupt reports the signal latch.
	Obs obs.Options

	name    string
	flags   *Flags
	stderr  io.Writer
	sig     atomic.Bool
	intro   *obs.Introspection
	trace   *tracebin.File
	closers []func()
}

// Start begins a run: it starts the CPU profile and the signal latch,
// builds the logger, span timings and progress reporter, starts the
// introspection server and opens the trace sink. SIGINT and SIGTERM
// only set the latch: the run polls it and stops at its next safe
// point. name prefixes every line Run writes to stderr.
func Start(name string, f *Flags, stderr io.Writer) (*Run, error) {
	r := &Run{name: name, flags: f, stderr: stderr}
	if err := r.start(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

func (r *Run) start() error {
	f := r.flags
	if f.CPUProfile != "" {
		pf, err := os.Create(f.CPUProfile)
		if err != nil {
			return fmt.Errorf("creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return err
		}
		r.onClose(func() {
			pprof.StopCPUProfile()
			pf.Close()
		})
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			r.sig.Store(true)
			fmt.Fprintf(r.stderr, "%s: interrupt received; stopping at the next safe point\n", r.name)
		case <-done:
		}
	}()
	r.onClose(func() {
		signal.Stop(sigc)
		close(done)
	})

	r.Obs = obs.Options{
		Metrics:   obs.NewRegistry(),
		Interrupt: r.sig.Load,
		Check:     f.Check,
		RunID:     f.RunID,
	}
	var err error
	if r.Obs.Log, err = Logger(r.stderr, f.LogLevel, f.LogFormat); err != nil {
		return err
	}
	if f.Spans || f.HTTP != "" {
		r.Obs.Timings = obs.NewTimings()
	}
	if f.HTTP != "" {
		r.Obs.Status = obs.NewStatus()
		r.Obs.Status.SetPhase("setup")
		ts := obs.NewTimeSeries(time.Second, 600, obs.SampleStatus(r.Obs.Status, r.Obs.Metrics))
		ts.Start()
		r.onClose(ts.Stop)
		in, err := obs.StartIntrospection(f.HTTP, r.Obs.Metrics, r.Obs.Status, r.Obs.Timings, ts)
		if err != nil {
			return fmt.Errorf("starting introspection server: %w", err)
		}
		r.intro = in
		// Graceful shutdown: let in-flight scrapes finish (bounded),
		// then close.
		r.onClose(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := in.Shutdown(ctx); err != nil {
				fmt.Fprintf(r.stderr, "%s: introspection shutdown: %v\n", r.name, err)
			}
		})
		fmt.Fprintf(r.stderr, "%s: introspection server on http://%s\n", r.name, in.Addr())
	}
	if f.Trace != "" {
		tf, err := tracebin.CreateSink(f.Trace)
		if err != nil {
			return fmt.Errorf("creating trace output: %w", err)
		}
		r.trace = tf
		r.Obs.Tracer = tf
		r.onClose(tf.Abort) // a no-op once committed
	}
	if f.Progress {
		r.Obs.Progress = obs.NewProgress(r.stderr, 5*time.Second)
	}
	return nil
}

// onClose queues fn for Close, which runs the queue last-in first-out.
func (r *Run) onClose(fn func()) { r.closers = append(r.closers, fn) }

// Close stops everything Start began: it discards an uncommitted trace,
// shuts the introspection server down, releases the signal latch and
// stops the CPU profile.
func (r *Run) Close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// Interrupted reports whether SIGINT or SIGTERM has arrived.
func (r *Run) Interrupted() bool { return r.sig.Load() }

// CommitTrace lands the event trace atomically. A run calls it through
// Finish on success, and directly on a deliberate pause, so that a
// paused run's trace is a usable prefix. Later calls do nothing.
func (r *Run) CommitTrace() error {
	t := r.trace
	if t == nil {
		return nil
	}
	r.trace = nil
	if err := t.Commit(); err != nil {
		return fmt.Errorf("writing trace: %v", err)
	}
	return nil
}

// Finish ends a run: it renders the telemetry summary (and, with
// -spans, the span summary) through render, commits the trace, and
// writes the -metrics snapshot and the heap profile.
func (r *Run) Finish(render func(*experiments.Table)) error {
	r.Obs.Status.SetPhase("done")
	snap := r.Obs.Metrics.Snapshot()
	render(experiments.MetricsSummary(snap))
	if r.flags.Spans {
		render(experiments.SpanSummary(r.Obs.Timings.Snapshot()))
	}
	if err := r.CommitTrace(); err != nil {
		return err
	}
	if r.flags.Metrics != "" {
		f, err := persist.CreateAtomic(r.flags.Metrics)
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
	if r.flags.MemProfile != "" {
		f, err := os.Create(r.flags.MemProfile)
		if err != nil {
			return fmt.Errorf("creating heap profile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// Linger keeps the introspection server up for d after a finished run,
// so a scraper (or a human with a browser) can still read its /status
// and /metrics; a signal ends the wait early. Without -http it returns
// at once.
func (r *Run) Linger(d time.Duration) {
	if r.intro == nil || d <= 0 {
		return
	}
	fmt.Fprintf(r.stderr, "%s: run complete; serving introspection for up to %s more (Ctrl-C to stop)\n", r.name, d)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) && !r.sig.Load() {
		time.Sleep(50 * time.Millisecond)
	}
}

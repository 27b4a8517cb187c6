package experiments

import (
	"fmt"

	"zccloud/internal/obs"
)

// MetricsSummary renders a telemetry snapshot as a result table: the
// scheduler's decision counters, the engine's dispatch accounting
// (including the event-queue high-water mark), and the run-level
// wait-time distribution. CLIs append it to their output so every run
// reports how much work the simulator actually did.
func MetricsSummary(snap obs.Snapshot) *Table {
	t := &Table{
		ID:      "metrics",
		Title:   "Telemetry summary",
		Columns: []string{"Metric", "Value"},
	}
	row := func(label string, v any) { t.AddRow(label, v) }
	row("Simulations run", snap.Counter("run.simulations"))
	reused, memo := snap.Counters["run.reused"]
	if memo {
		row("Simulations reused", reused)
	}
	row("Scheduler passes", snap.Counter("sched.passes"))
	row("Jobs started", snap.Counter("sched.jobs_started"))
	row("Jobs backfilled", snap.Counter("sched.jobs_backfilled"))
	row("Jobs killed", snap.Counter("sched.jobs_killed"))
	row("Jobs requeued", snap.Counter("sched.jobs_requeued"))
	row("Jobs pinned to always-on", snap.Counter("sched.jobs_pinned"))
	row("Jobs unrunnable", snap.Counter("sched.jobs_unrunnable"))
	row("Peak wait-queue length", int64(snap.Gauge("sched.queue_peak")))
	row("Events dispatched", snap.Counter("sim.events_dispatched"))
	row("Peak event-queue length", int64(snap.Gauge("sim.max_queue_len")))
	if h, ok := snap.Histograms["run.wait_hours"]; ok && h.Count > 0 {
		row("Wait time mean (h)", h.Mean)
		row("Wait time max (h)", h.Max)
	}
	if n := snap.Counter("run.jobs_unfinished"); n > 0 {
		t.AddNote("%d jobs unfinished at a deadline across all simulations", n)
	}
	t.AddNote("full snapshot available via -metrics; counters accumulate across all simulations of the run")
	if memo {
		t.AddNote("a reused simulation repeats one the run already did and is not simulated again: " +
			"the other counters, the wait histogram and -trace cover each distinct simulation once")
	}
	return t
}

// SpanSummary renders wall-clock span timings as a result table. It is
// a separate table from MetricsSummary — spans read the wall clock, so
// they are rendered only when span timing was explicitly enabled,
// keeping default output byte-identical across same-seed runs.
func SpanSummary(spans []obs.SpanSnapshot) *Table {
	t := &Table{
		ID:      "spans",
		Title:   "Phase timings (wall clock)",
		Columns: []string{"Span", "Count", "Total", "Max"},
	}
	for _, s := range spans {
		t.AddRow(s.Name, s.Count, fmtMS(s.TotalMS), fmtMS(s.MaxMS))
	}
	t.AddNote("wall-clock timings; they never affect simulation results")
	return t
}

func fmtMS(ms float64) string {
	switch {
	case ms >= 60_000:
		return fmt.Sprintf("%.1fm", ms/60_000)
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	default:
		return fmt.Sprintf("%.1fms", ms)
	}
}

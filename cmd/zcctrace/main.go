// Command zcctrace post-processes simulation event traces written by
// zccsim/zccexp's -trace flag — JSONL or binary columnar .zct, plain or
// gzipped. It turns a trace — the complete record of the scheduler's
// decisions — into the time-resolved views the paper plots, and can
// pinpoint where two supposedly-identical traces diverge.
//
// Usage:
//
//	zcctrace summary  t.zct              # whole-trace digest
//	zcctrace hist     t.jsonl            # event-kind histogram
//	zcctrace series   -step 1h t.zct     # queue/utilization time series (CSV)
//	zcctrace series   -format markdown t.jsonl.gz
//	zcctrace waits    t.jsonl            # wait time by size bin and on-time class
//	zcctrace timeline -job 17 t.jsonl    # one job's lifecycle
//	zcctrace diff     a.zct b.jsonl.gz   # first divergent event (exit 1 if any)
//	zcctrace export   -o t.jsonl t.zct   # convert to JSONL, byte-identical
//	                                     # to a direct JSONL trace of the run
//
// All subcommands detect the input format by content, never the file
// name, so gzipped and binary traces are read transparently; "-" means
// stdin. summary, hist, and series decode a .zct file's blocks on
// GOMAXPROCS cores (set the GOMAXPROCS environment variable to bound
// them) and print exactly what a sequential scan of the same trace
// prints; stdin, JSONL, gzipped and torn .zct inputs are scanned
// sequentially.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"zccloud"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "zcctrace: %v\n", err)
		os.Exit(1)
	}
}

const usage = `usage: zcctrace <command> [flags] <trace>

trace inputs may be JSONL or binary .zct, plain or gzipped; the format
is detected from content, never the file name

commands:
  summary    whole-trace digest: span, job lifecycle counts, wait stats
  hist       event-kind histogram
  series     queue depth, running jobs, and per-partition utilization over time
  waits      wait-time breakdown by job-size bin and on-time/late class
  timeline   every event of one job (-job N)
  diff       compare two traces; report the first divergent event
  export     convert any trace to JSONL (byte-identical to a direct JSONL run)

summary, hist, and series decode a .zct file's blocks on GOMAXPROCS
cores; the output does not depend on the core count. Run
"zcctrace <command> -h" for flags
`

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return fmt.Errorf("a command is required")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summary":
		return cmdSummary(rest, stdout, stderr)
	case "hist":
		return cmdHist(rest, stdout, stderr)
	case "series":
		return cmdSeries(rest, stdout, stderr)
	case "waits":
		return cmdWaits(rest, stdout, stderr)
	case "timeline":
		return cmdTimeline(rest, stdout, stderr)
	case "diff":
		return cmdDiff(rest, stdout, stderr)
	case "export":
		return cmdExport(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return nil
	default:
		fmt.Fprint(stderr, usage)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// openTrace opens a trace argument ("-" = stdin).
func openTrace(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// oneTraceArg parses flags expecting exactly one positional trace path.
func oneTraceArg(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected one trace file, got %d arguments", fs.NArg())
	}
	return fs.Arg(0), nil
}

func render(w io.Writer, t *zccloud.ResultTable, markdown bool) {
	if markdown {
		fmt.Fprintln(w, t.Markdown())
	} else {
		fmt.Fprintln(w, t.Text())
	}
}

func cmdSummary(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zcctrace summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	markdown := fs.Bool("markdown", false, "render markdown instead of text")
	path, err := oneTraceArg(fs, args)
	if err != nil {
		return err
	}
	var s *zccloud.TraceSummary
	if path == "-" {
		s, err = zccloud.SummarizeTrace(os.Stdin)
	} else {
		s, err = zccloud.SummarizeTraceFile(path)
	}
	if err != nil {
		return err
	}
	t := &zccloud.ResultTable{
		ID:      "summary",
		Title:   fmt.Sprintf("Trace summary — %s", path),
		Columns: []string{"Metric", "Value"},
	}
	t.AddRow("Events", s.Events)
	t.AddRow("Span (days)", fmt.Sprintf("%.2f – %.2f", s.FirstDays, s.LastDays))
	t.AddRow("Jobs arrived", s.Arrived)
	t.AddRow("Jobs completed", s.Completed)
	t.AddRow("Jobs started", s.Started)
	t.AddRow("Jobs backfilled", s.Backfilled)
	t.AddRow("Jobs killed", s.Killed)
	t.AddRow("Jobs requeued", s.Requeued)
	t.AddRow("Jobs abandoned", s.Abandoned)
	t.AddRow("Jobs pinned to always-on", s.Pinned)
	t.AddRow("Jobs unrunnable", s.Unrunnable)
	t.AddRow("Wait mean (h)", s.WaitMeanHrs)
	t.AddRow("Wait p50 (h)", s.WaitP50Hrs)
	t.AddRow("Wait p90 (h)", s.WaitP90Hrs)
	t.AddRow("Wait max (h)", s.WaitMaxHrs)
	t.AddRow("Partitions", strings.Join(s.Partitions, ", "))
	render(stdout, t, *markdown)
	return nil
}

func cmdHist(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zcctrace hist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	markdown := fs.Bool("markdown", false, "render markdown instead of text")
	path, err := oneTraceArg(fs, args)
	if err != nil {
		return err
	}
	var s *zccloud.TraceSummary
	if path == "-" {
		s, err = zccloud.SummarizeTrace(os.Stdin)
	} else {
		s, err = zccloud.SummarizeTraceFile(path)
	}
	if err != nil {
		return err
	}
	t := &zccloud.ResultTable{
		ID:      "hist",
		Title:   fmt.Sprintf("Event-kind histogram — %s", path),
		Columns: []string{"Event", "Count", "Share", "Per day"},
	}
	for _, k := range s.Kinds {
		share := 0.0
		if s.Events > 0 {
			share = 100 * float64(k.Count) / float64(s.Events)
		}
		t.AddRow(k.Kind, k.Count, fmt.Sprintf("%.1f%%", share), k.PerDay)
	}
	render(stdout, t, *markdown)
	return nil
}

func cmdSeries(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zcctrace series", flag.ContinueOnError)
	fs.SetOutput(stderr)
	step := fs.Duration("step", time.Hour, "sample step in simulated time (e.g. 30m, 6h)")
	format := fs.String("format", "csv", "output format: csv or markdown")
	path, err := oneTraceArg(fs, args)
	if err != nil {
		return err
	}
	if *step <= 0 {
		return fmt.Errorf("-step must be positive, got %s", *step)
	}
	if *format != "csv" && *format != "markdown" {
		return fmt.Errorf("unknown -format %q (want csv or markdown)", *format)
	}
	var s *zccloud.TraceSeries
	if path == "-" {
		s, err = zccloud.BuildTraceSeries(os.Stdin, zccloud.Time(step.Seconds()))
	} else {
		s, err = zccloud.BuildTraceSeriesFile(path, zccloud.Time(step.Seconds()))
	}
	if err != nil {
		return err
	}

	cols := []string{"days", "queue", "running"}
	for _, p := range s.Parts {
		cols = append(cols, "busy_"+p)
	}
	for i, p := range s.Parts {
		if s.Sizes[i] > 0 {
			cols = append(cols, "util_"+p)
		}
	}
	rowOf := func(p zccloud.TraceSeriesPoint) []string {
		row := []string{
			fmt.Sprintf("%.4f", p.Days),
			fmt.Sprintf("%d", p.Queue),
			fmt.Sprintf("%d", p.Running),
		}
		for _, b := range p.Busy {
			row = append(row, fmt.Sprintf("%d", b))
		}
		for i := range s.Parts {
			if s.Sizes[i] > 0 {
				row = append(row, fmt.Sprintf("%.4f", s.Utilization(p, i)))
			}
		}
		return row
	}
	if *format == "markdown" {
		t := &zccloud.ResultTable{
			ID:      "series",
			Title:   fmt.Sprintf("Queue and utilization series — %s (step %s)", path, step),
			Columns: cols,
		}
		for _, p := range s.Points {
			row := make([]any, 0, len(cols))
			for _, c := range rowOf(p) {
				row = append(row, c)
			}
			t.AddRow(row...)
		}
		render(stdout, t, true)
		return nil
	}
	fmt.Fprintln(stdout, strings.Join(cols, ","))
	for _, p := range s.Points {
		fmt.Fprintln(stdout, strings.Join(rowOf(p), ","))
	}
	return nil
}

func cmdWaits(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zcctrace waits", flag.ContinueOnError)
	fs.SetOutput(stderr)
	markdown := fs.Bool("markdown", false, "render markdown instead of text")
	path, err := oneTraceArg(fs, args)
	if err != nil {
		return err
	}
	f, err := openTrace(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := zccloud.BuildTraceWaits(f)
	if err != nil {
		return err
	}
	t := &zccloud.ResultTable{
		ID:      "waits",
		Title:   fmt.Sprintf("Wait time by job size and timeliness — %s", path),
		Columns: []string{"Class", "Jobs", "Avg wait (h)"},
	}
	for _, b := range w.BySize {
		if b.Jobs == 0 {
			continue
		}
		t.AddRow(b.Label+" nodes", b.Jobs, b.AvgWaitHrs)
	}
	if w.Classified {
		t.AddRow(w.OnTime.Label, w.OnTime.Jobs, w.OnTime.AvgWaitHrs)
		t.AddRow(w.Late.Label, w.Late.Jobs, w.Late.AvgWaitHrs)
	} else {
		t.AddNote("no window transitions in this trace; on-time/late classification unavailable")
	}
	t.AddNote("on-time: submitted while a window was open with room for the job's request (paper Fig. 6)")
	render(stdout, t, *markdown)
	return nil
}

func cmdTimeline(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zcctrace timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobID := fs.Int("job", -1, "job ID to trace (required)")
	markdown := fs.Bool("markdown", false, "render markdown instead of text")
	path, err := oneTraceArg(fs, args)
	if err != nil {
		return err
	}
	if *jobID < 0 {
		return fmt.Errorf("timeline needs -job N")
	}
	f, err := openTrace(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := zccloud.TraceJobTimeline(f, *jobID)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("job %d does not appear in %s", *jobID, path)
	}
	t := &zccloud.ResultTable{
		ID:      "timeline",
		Title:   fmt.Sprintf("Job %d timeline — %s", *jobID, path),
		Columns: []string{"Day", "Event", "Partition", "Nodes", "Detail"},
	}
	for _, e := range events {
		t.AddRow(fmt.Sprintf("%.4f", float64(e.Time)/float64(zccloud.Day)),
			e.Kind.String(), e.Partition, e.Nodes, e.Detail)
	}
	t.AddNote("detail is event-specific: request/wait/runtime in seconds, queue length, retry count, ...")
	render(stdout, t, *markdown)
	return nil
}

func cmdDiff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zcctrace diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two trace files")
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	fa, err := openTrace(pathA)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := openTrace(pathB)
	if err != nil {
		return err
	}
	defer fb.Close()
	d, err := zccloud.DiffTraces(fa, fb)
	if err != nil {
		return err
	}
	if !d.Diverged {
		fmt.Fprintf(stdout, "traces identical: %d events\n", d.Index)
		return nil
	}
	fmt.Fprintf(stdout, "traces diverge at event %d (after %d identical events):\n", d.Index, d.Index)
	fmt.Fprintf(stdout, "  %s: %s\n", pathA, fmtEvent(d.A))
	fmt.Fprintf(stdout, "  %s: %s\n", pathB, fmtEvent(d.B))
	return fmt.Errorf("traces diverge at event %d", d.Index)
}

// cmdExport converts any trace to JSONL, the interchange format. The
// output goes through the same encoder the simulator's JSONL sink
// uses, so exporting a .zct trace yields bytes identical to tracing
// the run straight to JSONL.
func cmdExport(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zcctrace export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "-", "output path (.jsonl or .jsonl.gz; \"-\" = stdout)")
	path, err := oneTraceArg(fs, args)
	if err != nil {
		return err
	}
	if strings.HasSuffix(*out, ".zct") {
		return fmt.Errorf("export emits JSONL; to produce a .zct trace, run the simulator with -trace out.zct")
	}
	f, err := openTrace(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if *out == "-" {
		jw := zccloud.NewJSONLTracer(stdout)
		if err := zccloud.ReadAnyTrace(f, func(e zccloud.TraceEvent) error {
			jw.Trace(e)
			return nil
		}); err != nil {
			return err
		}
		return jw.Close()
	}
	sink, err := zccloud.CreateTraceSink(*out)
	if err != nil {
		return err
	}
	if err := zccloud.ReadAnyTrace(f, func(e zccloud.TraceEvent) error {
		sink.Trace(e)
		return nil
	}); err != nil {
		sink.Abort()
		return err
	}
	return sink.Commit()
}

func fmtEvent(e *zccloud.TraceEvent) string {
	if e == nil {
		return "<end of trace>"
	}
	s := fmt.Sprintf("t=%.6g %s", float64(e.Time), e.Kind)
	if e.Job >= 0 {
		s += fmt.Sprintf(" job=%d", e.Job)
	}
	if e.Partition != "" {
		s += " part=" + e.Partition
	}
	if e.Nodes != 0 {
		s += fmt.Sprintf(" nodes=%d", e.Nodes)
	}
	if e.Detail != 0 {
		s += fmt.Sprintf(" detail=%g", e.Detail)
	}
	return s
}

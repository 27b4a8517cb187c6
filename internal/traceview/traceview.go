// Package traceview post-processes simulation traces — JSONL or binary
// columnar .zct, plain or gzipped, distinguished by content sniffing —
// into the time-resolved views the paper plots: whole-trace summaries,
// event-kind histograms, queue-depth and utilization time series,
// wait-time breakdowns by job-size bin and on-time/late class, per-job
// timelines, and a divergence diff between two same-seed traces.
//
// Everything here is derived purely from trace records — a trace is a
// complete record of the scheduler's decisions — so analyses reproduce
// exactly across runs and machines. Every view is one sequential fold
// over the trace's events, with memory bounded by a few trace blocks
// regardless of trace size. SummarizeFile and BuildSeriesFile read a
// path through tracebin.ScanFile, which decodes an indexed .zct file's
// blocks on every core (GOMAXPROCS bounds the decode) and still hands
// the fold each event in file order, so their output is the io.Reader
// view's, byte for byte.
package traceview

import (
	"fmt"
	"io"
	"sort"

	"zccloud/internal/obs"
	"zccloud/internal/sim"
	"zccloud/internal/tracebin"
)

// sizeBinBounds are the paper's Figure 5 node-count bins (inclusive
// upper bounds), mirrored from internal/core.
var sizeBinBounds = []int{511, 1024, 2048, 4096, 8192, 16384, 32768, 49152}

// KindCount is one event kind's frequency in a trace.
type KindCount struct {
	Kind   string
	Count  int
	PerDay float64 // occurrences per simulated day of the trace span
}

// Summary is a whole-trace digest.
type Summary struct {
	Events    int
	FirstDays float64
	LastDays  float64

	// Job lifecycle counts.
	Arrived    int
	Completed  int
	Started    int
	Backfilled int
	Killed     int
	Requeued   int
	Abandoned  int
	Pinned     int
	Unrunnable int

	// Wait-time distribution over completed jobs (hours).
	WaitMeanHrs float64
	WaitP50Hrs  float64
	WaitP90Hrs  float64
	WaitMaxHrs  float64

	// Kinds is every event kind seen, most frequent first.
	Kinds []KindCount
	// Partitions is every partition named in the trace, sorted.
	Partitions []string
}

// summaryAcc accumulates summary state over a trace's events.
type summaryAcc struct {
	s     Summary
	kinds [256]int // indexed by obs.EventKind
	parts map[string]bool
	waits []float64
}

func (a *summaryAcc) add(e obs.Event) error {
	if a.s.Events == 0 {
		a.s.FirstDays = float64(e.Time) / float64(sim.Day)
	}
	a.s.Events++
	a.s.LastDays = float64(e.Time) / float64(sim.Day)
	a.kinds[e.Kind]++
	if e.Partition != "" {
		a.parts[e.Partition] = true
	}
	switch e.Kind {
	case obs.EvArrive:
		a.s.Arrived++
	case obs.EvFinish:
		a.s.Completed++
		a.waits = append(a.waits, e.Detail/float64(sim.Hour))
	case obs.EvStart:
		a.s.Started++
	case obs.EvBackfillStart:
		a.s.Started++
		a.s.Backfilled++
	case obs.EvKill:
		a.s.Killed++
	case obs.EvRequeue:
		a.s.Requeued++
	case obs.EvAbandon:
		a.s.Abandoned++
	case obs.EvPin:
		a.s.Pinned++
	case obs.EvUnrunnable:
		a.s.Unrunnable++
	}
	return nil
}

// finalize computes the derived statistics.
func (a *summaryAcc) finalize() *Summary {
	s := a.s
	if len(a.waits) > 0 {
		waits := a.waits
		sort.Float64s(waits)
		sum := 0.0
		for _, w := range waits {
			sum += w
		}
		s.WaitMeanHrs = sum / float64(len(waits))
		s.WaitP50Hrs = waits[len(waits)/2]
		s.WaitP90Hrs = waits[int(float64(len(waits))*0.9)]
		s.WaitMaxHrs = waits[len(waits)-1]
	}
	span := s.LastDays - s.FirstDays
	for k, n := range a.kinds {
		if n == 0 {
			continue
		}
		kc := KindCount{Kind: obs.EventKind(k).String(), Count: n}
		if span > 0 {
			kc.PerDay = float64(n) / span
		}
		s.Kinds = append(s.Kinds, kc)
	}
	sort.Slice(s.Kinds, func(i, j int) bool {
		if s.Kinds[i].Count != s.Kinds[j].Count {
			return s.Kinds[i].Count > s.Kinds[j].Count
		}
		return s.Kinds[i].Kind < s.Kinds[j].Kind
	})
	for p := range a.parts {
		s.Partitions = append(s.Partitions, p)
	}
	sort.Strings(s.Partitions)
	return &s
}

// A scanFunc streams a trace's events through fn in order:
// tracebin.ReadAny over a reader or tracebin.ScanFile over a path.
type scanFunc func(fn func(obs.Event) error) error

func readerScan(r io.Reader) scanFunc {
	return func(fn func(obs.Event) error) error { return tracebin.ReadAny(r, fn) }
}

func fileScan(path string) scanFunc {
	return func(fn func(obs.Event) error) error { return tracebin.ScanFile(path, fn) }
}

// Summarize digests a trace in any supported format (JSONL or .zct,
// plain or gzipped).
func Summarize(r io.Reader) (*Summary, error) { return summarize(readerScan(r)) }

// SummarizeFile digests the trace file at path; the result is
// Summarize's on the same trace.
func SummarizeFile(path string) (*Summary, error) { return summarize(fileScan(path)) }

func summarize(scan scanFunc) (*Summary, error) {
	acc := &summaryAcc{parts: make(map[string]bool)}
	if err := scan(acc.add); err != nil {
		return nil, err
	}
	return acc.finalize(), nil
}

// SeriesPoint is one sample of the reconstructed scheduler state.
type SeriesPoint struct {
	Days    float64
	Queue   int
	Running int
	// Busy holds in-use node counts aligned with Series.Parts.
	Busy []int
}

// Series is a time series of queue depth, running-job count, and
// per-partition busy nodes, sampled on a fixed step. State is
// reconstructed by replaying job start/finish/kill events; every
// enqueue record carries the authoritative queue length, so queue
// depth resynchronizes continuously.
type Series struct {
	StepDays float64
	// Parts names the partitions seen, sorted; Sizes holds each
	// partition's node count where the trace reveals it (window
	// transitions carry partition sizes; always-on partitions that never
	// cycle report 0 = unknown).
	Parts  []string
	Sizes  []int
	Points []SeriesPoint
}

// Utilization returns busy/size for partition index i at point p, or -1
// when the partition's size is unknown.
func (s *Series) Utilization(p SeriesPoint, i int) float64 {
	if i >= len(s.Sizes) || s.Sizes[i] <= 0 {
		return -1
	}
	return float64(p.Busy[i]) / float64(s.Sizes[i])
}

// BuildSeries samples a trace's reconstructed state every step (hourly
// when step <= 0). It accepts any supported trace format.
func BuildSeries(r io.Reader, step sim.Duration) (*Series, error) {
	return buildSeries(readerScan(r), step)
}

// BuildSeriesFile samples the trace file at path every step; the
// result is BuildSeries's on the same trace.
func BuildSeriesFile(path string, step sim.Duration) (*Series, error) {
	return buildSeries(fileScan(path), step)
}

func buildSeries(scan scanFunc, step sim.Duration) (*Series, error) {
	if step <= 0 {
		step = sim.Hour
	}
	type partState struct {
		busy int
		size int
	}
	parts := make(map[string]*partState)
	part := func(name string) *partState {
		ps := parts[name]
		if ps == nil {
			ps = &partState{}
			parts[name] = ps
		}
		return ps
	}
	queue, running := 0, 0
	var raw []struct {
		days           float64
		queue, running int
		busy           map[string]int
	}
	next := sim.Time(step)
	sample := func() {
		busy := make(map[string]int, len(parts))
		for name, ps := range parts {
			busy[name] = ps.busy
		}
		raw = append(raw, struct {
			days           float64
			queue, running int
			busy           map[string]int
		}{float64(next) / float64(sim.Day), queue, running, busy})
	}
	err := scan(func(e obs.Event) error {
		for e.Time >= next {
			sample()
			next += step
		}
		switch e.Kind {
		case obs.EvEnqueue:
			queue = int(e.Detail) // authoritative: queue length after insert
		case obs.EvStart, obs.EvBackfillStart:
			if queue > 0 {
				queue--
			}
			running++
			part(e.Partition).busy += e.Nodes
		case obs.EvFinish, obs.EvKill:
			running--
			part(e.Partition).busy -= e.Nodes
		case obs.EvWindowUp, obs.EvWindowDown:
			// Window transitions carry the partition's size; brownouts
			// don't (their node count is the surviving subset).
			part(e.Partition).size = e.Nodes
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sample() // final partial step

	s := &Series{StepDays: float64(step) / float64(sim.Day)}
	for name := range parts {
		s.Parts = append(s.Parts, name)
	}
	sort.Strings(s.Parts)
	for _, name := range s.Parts {
		s.Sizes = append(s.Sizes, parts[name].size)
	}
	for _, rp := range raw {
		p := SeriesPoint{Days: rp.days, Queue: rp.queue, Running: rp.running}
		for _, name := range s.Parts {
			p.Busy = append(p.Busy, rp.busy[name])
		}
		s.Points = append(s.Points, p)
	}
	return s, nil
}

// WaitBin is one cut of the wait-time breakdown.
type WaitBin struct {
	Label      string
	Jobs       int
	AvgWaitHrs float64
}

// Waits is the paper's Table III/IV-style wait-time cuts, derived from a
// trace: by job-size bin (Figure 5's bins) and by on-time/late class.
type Waits struct {
	BySize []WaitBin
	// Classified reports whether on-time/late classification was
	// possible — it needs window transitions in the trace (a trace with
	// no intermittent partition has no timeliness split).
	Classified bool
	OnTime     WaitBin
	Late       WaitBin
}

// BuildWaits derives wait-time cuts from a trace. A job's wait comes
// from its finish record; its class is decided at arrival the way the
// scheduler classifies (paper, Figure 6): on-time if some intermittent
// partition's window is up at submission and the job's requested
// walltime fits before the window's believed end. For traces from the
// experiment suite, requested walltime equals runtime (Qsim's
// exact-request replay), so the classification matches the paper's.
func BuildWaits(r io.Reader) (*Waits, error) {
	type arrival struct {
		nodes  int
		onTime bool
	}
	type window struct {
		up  bool
		end sim.Time
	}
	arrivals := make(map[int]arrival)
	windows := make(map[string]*window)
	w := &Waits{}
	bins := make([]struct {
		n   int
		sum float64
	}, len(sizeBinBounds))
	var onN, lateN int
	var onSum, lateSum float64
	err := tracebin.ReadAny(r, func(e obs.Event) error {
		switch e.Kind {
		case obs.EvWindowUp:
			w.Classified = true
			ws := windows[e.Partition]
			if ws == nil {
				ws = &window{}
				windows[e.Partition] = ws
			}
			ws.up = true
			ws.end = sim.Time(e.Detail)
		case obs.EvWindowDown, obs.EvBrownout:
			w.Classified = true
			if ws := windows[e.Partition]; ws != nil {
				ws.up = false
			}
		case obs.EvArrive:
			onTime := false
			for _, ws := range windows {
				if ws.up && e.Time+sim.Time(e.Detail) <= ws.end {
					onTime = true
					break
				}
			}
			arrivals[e.Job] = arrival{nodes: e.Nodes, onTime: onTime}
		case obs.EvFinish:
			a, ok := arrivals[e.Job]
			if !ok {
				return nil // finish without arrival: partial trace prefix
			}
			wait := e.Detail / float64(sim.Hour)
			bin := sizeBinIndex(a.nodes)
			bins[bin].n++
			bins[bin].sum += wait
			if a.onTime {
				onN++
				onSum += wait
			} else {
				lateN++
				lateSum += wait
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range bins {
		lo := 1
		if i > 0 {
			lo = sizeBinBounds[i-1] + 1
		}
		wb := WaitBin{Label: fmt.Sprintf("%d-%d", lo, sizeBinBounds[i]), Jobs: b.n}
		if b.n > 0 {
			wb.AvgWaitHrs = b.sum / float64(b.n)
		}
		w.BySize = append(w.BySize, wb)
	}
	w.OnTime = WaitBin{Label: "on-time", Jobs: onN}
	if onN > 0 {
		w.OnTime.AvgWaitHrs = onSum / float64(onN)
	}
	w.Late = WaitBin{Label: "late", Jobs: lateN}
	if lateN > 0 {
		w.Late.AvgWaitHrs = lateSum / float64(lateN)
	}
	return w, nil
}

func sizeBinIndex(nodes int) int {
	for i, hi := range sizeBinBounds {
		if nodes <= hi {
			return i
		}
	}
	return len(sizeBinBounds) - 1
}

// JobTimeline returns every event of one job, in trace order.
func JobTimeline(r io.Reader, jobID int) ([]obs.Event, error) {
	var out []obs.Event
	err := tracebin.ReadAny(r, func(e obs.Event) error {
		if e.Job == jobID {
			out = append(out, e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DiffResult locates the first difference between two traces.
type DiffResult struct {
	// Diverged is false when the traces are identical event-for-event.
	Diverged bool
	// Index is the 0-based position of the first divergent event; it
	// equals the count of leading events the traces share.
	Index int
	// A and B are the first differing events; nil means that trace
	// ended where the other continues.
	A, B *obs.Event
}

// Diff streams two traces in lockstep, bounded-memory, exiting on the
// first event where they differ — the debuggable form of the same-seed
// determinism guarantee: two runs that should be identical either are,
// or this names the exact decision where they split. The two inputs
// may be in different formats (.zct against JSONL.gz compares the
// decoded events, not the bytes).
func Diff(a, b io.Reader) (*DiffResult, error) {
	sa, err := tracebin.NewScanner(a)
	if err != nil {
		return nil, err
	}
	defer sa.Close()
	sb, err := tracebin.NewScanner(b)
	if err != nil {
		return nil, err
	}
	defer sb.Close()
	idx := 0
	for {
		ea, okA, err := sa.Next()
		if err != nil {
			return nil, fmt.Errorf("trace A: %w", err)
		}
		eb, okB, err := sb.Next()
		if err != nil {
			return nil, fmt.Errorf("trace B: %w", err)
		}
		switch {
		case !okA && !okB:
			return &DiffResult{Index: idx}, nil
		case !okA:
			return &DiffResult{Diverged: true, Index: idx, B: &eb}, nil
		case !okB:
			return &DiffResult{Diverged: true, Index: idx, A: &ea}, nil
		case ea != eb:
			return &DiffResult{Diverged: true, Index: idx, A: &ea, B: &eb}, nil
		}
		idx++
	}
}

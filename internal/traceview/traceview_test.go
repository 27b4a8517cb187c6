package traceview

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"zccloud/internal/obs"
	"zccloud/internal/sim"
	"zccloud/internal/tracebin"
)

// genTrace synthesizes a scheduler-shaped event stream: arrivals,
// enqueues carrying authoritative queue depth, starts/finishes across
// partitions, window transitions, occasional kills — enough state churn
// to exercise every series path (queue clamp, busy deltas, size
// last-wins) across many blocks.
func genTrace(n int) []obs.Event {
	rng := rand.New(rand.NewSource(7))
	parts := []string{"green", "grid"}
	var events []obs.Event
	t := sim.Time(0)
	queue := 0
	job := 0
	type run struct {
		job   int
		part  string
		nodes int
	}
	var running []run
	for len(events) < n {
		t += sim.Time(rng.Float64() * 900)
		switch k := rng.Intn(10); {
		case k < 3:
			job++
			nodes := 1 << uint(rng.Intn(10))
			events = append(events, obs.Event{Time: t, Kind: obs.EvArrive, Job: job, Nodes: nodes, Detail: float64(rng.Intn(7200))})
			queue++
			events = append(events, obs.Event{Time: t, Kind: obs.EvEnqueue, Job: job, Nodes: nodes, Detail: float64(queue)})
		case k < 6 && queue > 0:
			queue--
			p := parts[rng.Intn(len(parts))]
			nodes := 1 << uint(rng.Intn(10))
			kind := obs.EvStart
			if rng.Intn(4) == 0 {
				kind = obs.EvBackfillStart
			}
			events = append(events, obs.Event{Time: t, Kind: kind, Job: job, Partition: p, Nodes: nodes})
			running = append(running, run{job: job, part: p, nodes: nodes})
		case k < 8 && len(running) > 0:
			i := rng.Intn(len(running))
			r := running[i]
			running = append(running[:i], running[i+1:]...)
			kind := obs.EvFinish
			if rng.Intn(8) == 0 {
				kind = obs.EvKill
			}
			events = append(events, obs.Event{Time: t, Kind: kind, Job: r.job, Partition: r.part, Nodes: r.nodes, Detail: float64(rng.Intn(40)) * 360})
		case k < 9:
			events = append(events, obs.Event{Time: t, Kind: obs.EvWindowUp, Job: -1, Partition: "green", Nodes: 4096, Detail: float64(t + 4*sim.Time(sim.Hour))})
		default:
			events = append(events, obs.Event{Time: t, Kind: obs.EvWindowDown, Job: -1, Partition: "green", Nodes: 4096})
		}
	}
	return events[:n]
}

// writeZCT writes events to path as .zct with small blocks so the
// block-parallel scans see many of them.
func writeZCT(t testing.TB, path string, events []obs.Event, blockEvents int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := tracebin.NewWriterBlockSize(f, blockEvents)
	for _, e := range events {
		w.Trace(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func writeJSONLGz(t *testing.T, path string, events []obs.Event) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	jw := tracebin.NewJSONL(zw)
	for _, e := range events {
		jw.Trace(e)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// withProcs runs fn with GOMAXPROCS set to procs, the worker count
// tracebin.ScanFile decodes .zct blocks on.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// workerCounts spans one worker, fewer workers than blocks, and more.
var workerCounts = []int{1, 2, 4, 16}

func summarizePath(t *testing.T, path string) *Summary {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := Summarize(f)
	if err != nil {
		t.Fatalf("Summarize(%s): %v", path, err)
	}
	return s
}

func seriesPath(t *testing.T, path string, step sim.Duration) *Series {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := BuildSeries(f, step)
	if err != nil {
		t.Fatalf("BuildSeries(%s): %v", path, err)
	}
	return s
}

// TestSummarizeFileParallelMatchesSequential checks the block-parallel
// file scan digests exactly what the streaming io.Reader scan does, at
// every worker count and for every input format.
func TestSummarizeFileParallelMatchesSequential(t *testing.T) {
	events := genTrace(5000)
	dir := t.TempDir()
	zct := filepath.Join(dir, "t.zct")
	writeZCT(t, zct, events, 128)
	jz := filepath.Join(dir, "t.jsonl.gz")
	writeJSONLGz(t, jz, events)

	seq := summarizePath(t, zct)
	if seq.Events != len(events) {
		t.Fatalf("sequential read %d events, want %d", seq.Events, len(events))
	}
	for _, workers := range workerCounts {
		for _, path := range []string{zct, jz} {
			var par *Summary
			var err error
			withProcs(workers, func() { par, err = SummarizeFile(path) })
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, path, err)
			}
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("workers=%d %s summary differs from sequential:\npar %+v\nseq %+v", workers, path, par, seq)
			}
		}
	}
}

func TestBuildSeriesFileParallelMatchesSequential(t *testing.T) {
	events := genTrace(5000)
	dir := t.TempDir()
	zct := filepath.Join(dir, "t.zct")
	writeZCT(t, zct, events, 64)

	for _, step := range []sim.Duration{0, sim.Hour, 13 * sim.Duration(sim.Hour) / 7} {
		seq := seriesPath(t, zct, step)
		if len(seq.Points) == 0 || len(seq.Parts) == 0 {
			t.Fatalf("sequential series is degenerate: %d points, %d parts", len(seq.Points), len(seq.Parts))
		}
		for _, workers := range workerCounts {
			var par *Series
			var err error
			withProcs(workers, func() { par, err = BuildSeriesFile(zct, step) })
			if err != nil {
				t.Fatalf("step=%v workers=%d: %v", step, workers, err)
			}
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("step=%v workers=%d series differs from sequential", step, workers)
			}
		}
	}
}

// TestBuildSeriesFileEmptyAndTorn pins the edge cases: an empty trace
// yields the sequential single sample, and a torn .zct (no footer
// index) still scans.
func TestBuildSeriesFileEmptyAndTorn(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.zct")
	writeZCT(t, empty, nil, 0)
	seq := seriesPath(t, empty, sim.Hour)
	if len(seq.Points) != 1 {
		t.Fatalf("empty trace: %d points, want 1", len(seq.Points))
	}

	events := genTrace(1000)
	full := filepath.Join(dir, "full.zct")
	writeZCT(t, full, events, 100)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.zct")
	if err := os.WriteFile(torn, data[:len(data)-37], 0o644); err != nil {
		t.Fatal(err)
	}
	seqT := seriesPath(t, torn, sim.Hour)
	for _, workers := range workerCounts {
		for _, c := range []struct {
			path string
			want *Series
		}{{empty, seq}, {torn, seqT}} {
			var par *Series
			var err error
			withProcs(workers, func() { par, err = BuildSeriesFile(c.path, sim.Hour) })
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, c.path, err)
			}
			if !reflect.DeepEqual(par, c.want) {
				t.Fatalf("workers=%d %s: series differs from sequential", workers, c.path)
			}
		}
	}
}

// TestDiffMixedFormats checks first-divergence reporting across
// formats: a .zct trace against its JSONL.gz twin, identical and then
// perturbed.
func TestDiffMixedFormats(t *testing.T) {
	events := genTrace(2000)
	dir := t.TempDir()
	zct := filepath.Join(dir, "a.zct")
	writeZCT(t, zct, events, 128)

	var jz bytes.Buffer
	zw := gzip.NewWriter(&jz)
	jw := tracebin.NewJSONL(zw)
	for _, e := range events {
		jw.Trace(e)
	}
	jw.Close()
	zw.Close()

	fa, err := os.Open(zct)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	res, err := Diff(fa, bytes.NewReader(jz.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("identical traces reported divergent at %d: %+v vs %+v", res.Index, res.A, res.B)
	}
	if res.Index != len(events) {
		t.Fatalf("shared prefix %d, want %d", res.Index, len(events))
	}

	// Perturb one event mid-stream in the JSONL copy.
	perturbed := append([]obs.Event(nil), events...)
	perturbed[777].Nodes += 3
	var jz2 bytes.Buffer
	zw = gzip.NewWriter(&jz2)
	jw = tracebin.NewJSONL(zw)
	for _, e := range perturbed {
		jw.Trace(e)
	}
	jw.Close()
	zw.Close()

	fa2, err := os.Open(zct)
	if err != nil {
		t.Fatal(err)
	}
	defer fa2.Close()
	res, err = Diff(fa2, bytes.NewReader(jz2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged || res.Index != 777 {
		t.Fatalf("divergence at %d (diverged=%v), want 777", res.Index, res.Diverged)
	}
	if res.A == nil || res.B == nil || res.B.Nodes != res.A.Nodes+3 {
		t.Fatalf("divergent events not reported: %+v vs %+v", res.A, res.B)
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(xs, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // p99.9 has 1 beyond, p99 has 10
		{10000, 99.9, true},
		{200, 95, true}, // exactly 10 beyond p95
		{199, 90, true}, // p95 would leave 9
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false}, // even the median leaves 9
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestOpenLoopLatencyCountsGeneratorLag(t *testing.T) {
	due := time.Unix(100, 0)
	// The generator sent 30 ms late and the run took 20 ms after that:
	// the user waited 50 ms from when the submission was due.
	o := outcome{due: due, end: due.Add(50 * time.Millisecond), ok: true}
	if got := latencyMS(o, time.Second); got != 50 {
		t.Errorf("latency = %v ms, want 50", got)
	}
	// A shed request answered after 5 ms still misses the limit.
	shed := outcome{due: due, end: due.Add(5 * time.Millisecond)}
	if got := latencyMS(shed, time.Second); got != 1000 {
		t.Errorf("shed latency = %v ms, want the 1000 ms limit", got)
	}
	lat := latencies([]outcome{shed, o}, time.Second)
	if lat[0] != 50 || lat[1] != 1000 {
		t.Errorf("latencies = %v, want [50 1000]", lat)
	}
}

func TestGoodputCountsFailuresAsMisses(t *testing.T) {
	due := time.Unix(0, 0)
	at := func(ms int) time.Time { return due.Add(time.Duration(ms) * time.Millisecond) }
	outs := []outcome{
		{due: due, end: at(100), ok: true},  // within the limit
		{due: due, end: at(300), ok: true},  // on the limit: counts
		{due: due, end: at(301), ok: true},  // late
		{due: due, end: at(10), ok: false},  // failed fast: still a miss
		{due: due, end: at(200), ok: false}, // failed
	}
	if got := goodput(outs, 300*time.Millisecond, 2); got != 1 {
		t.Errorf("goodput = %v/s, want 2 runs / 2 s = 1", got)
	}
	if got := goodput(outs, time.Second, 0); got != 0 {
		t.Errorf("goodput over no time = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 5},    // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12},   // runs past its parent
		{ID: 5, Parent: 3, Name: "b1", Start: 2, End: 2.5}, // grandchild
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 10 - 4 - 2, 2: 2, 3: 2.5, 4: 4, 5: 0.5} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
}

func TestTableSelfTimesSumToPass(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "experiments.fig5", Start: 0.5, End: 6,
			Attr: map[string]float64{"core_simulate": 4, "core_setup": 0.5}},
		{ID: 3, Parent: 1, Name: "render", Start: 6, End: 6.5},
		{ID: 4, Parent: 1, Name: "experiments.fig6", Start: 6.5, End: 9.5,
			Attr: map[string]float64{"market": 2}},
	}
	rows := tableSelfTimes(spans, 1)
	var sum float64
	for _, v := range rows {
		sum += v
	}
	if math.Abs(sum-10) > 1e-12 {
		t.Errorf("rows %v sum to %v, want the 10 s pass", rows, sum)
	}
	if math.Abs(rows["bench"]-1) > 1e-12 || math.Abs(rows["experiments"]-2.5) > 1e-12 {
		t.Errorf("bench %v, experiments %v; want 1 and 2.5", rows["bench"], rows["experiments"])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.open("x", 0, "")
	r.close(id)
	r.attr(id, "core", 1)
	if id != 0 || r.snapshot() != nil {
		t.Errorf("nil recorder returned id %d, spans %v", id, r.snapshot())
	}
}

func TestOpenLoopInputsDependOnlyOnSeed(t *testing.T) {
	a, b := openLoopInputs(7, 4), openLoopInputs(7, 4)
	if len(a) != len(b) || len(a) != int(lowRate*2)+int(highRate*2) {
		t.Fatalf("got %d and %d arrivals", len(a), len(b))
	}
	big, traced := 0, 0
	for i := range a {
		if a[i].offset != b[i].offset || a[i].spec != b[i].spec {
			t.Fatalf("arrival %d differs between identical seeds", i)
		}
		if i > 0 && a[i].offset < a[i-1].offset {
			t.Fatalf("arrival %d is due before %d", i, i-1)
		}
		if a[i].spec.KillRequeue {
			big++
		}
		if a[i].spec.Trace != "" {
			traced++
		}
	}
	if want := len(a) / bigEvery; big < want || big > want+1 {
		t.Errorf("%d big specs in %d, want one per %d", big, len(a), bigEvery)
	}
	if want := len(a) / traceEvery; traced < want || traced > want+1 {
		t.Errorf("%d traced specs in %d, want one per %d", traced, len(a), traceEvery)
	}
	if c := openLoopInputs(8, 4); c[0].spec == a[0].spec {
		t.Error("different seeds gave the same first spec")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	for _, w := range bj.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
			continue
		}
		check(w.Name+" end_to_end", wl.e2e, bj.EndToEnd)
		check(w.Name+" per_layer", wl.layer, bj.PerLayer)
	}
}

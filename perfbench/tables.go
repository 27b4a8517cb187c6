package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"zccloud/internal/experiments"
	"zccloud/internal/job"
	"zccloud/internal/obs"
)

// tableSweep is a workload that renders a set of the paper's tables
// from one Lab, the way `zccexp -ids ...` does.
type tableSweep struct {
	name string
	ids  []string
	// options builds the Lab options from a seed drawn from -seed.
	options func(seed int64) experiments.Options
	// limit is the sweep latency the high phase's goodput counts
	// against.
	limit time.Duration
	// passSeconds is how long one solo sweep takes on the 2-core machine
	// the benchmark was sized on; it turns -seconds into a fixed number
	// of rounds, so every version of the program does the same work.
	passSeconds float64
}

// periodicSweep is the Section IV grid on a full-Mira 7-day workload:
// sched, sim and core do nearly all the work; killrequeue needs a small
// market only for its best site's windows. The span is a week, not the
// 28 days of the quick preset, because the sweep's cost varies by ~25%
// between workload seeds of the same size (queue depths under fig8's
// 5× load), and only many short sweeps per run average that out.
var periodicSweep = tableSweep{
	name: "periodic-sweep",
	ids:  []string{"fig5", "fig6", "fig8", "killrequeue"},
	options: func(seed int64) experiments.Options {
		return experiments.Options{Seed: seed, WorkloadDays: 7, MarketDays: 7, WindSites: 20}
	},
	limit:       20 * time.Second,
	passSeconds: 1,
}

// strandedPower is Sections V and VI: the market pass over 200 wind
// sites dominates, then fig13 schedules on irregular SP intervals.
var strandedPower = tableSweep{
	name: "stranded-power",
	ids:  []string{"table3", "fig9", "fig10", "fig11", "table6", "fig13"},
	options: func(seed int64) experiments.Options {
		return experiments.Options{Seed: seed, WorkloadDays: 14, MarketDays: 60, WindSites: 200}
	},
	limit:       20 * time.Second,
	passSeconds: 1.5,
}

// setupSamples is how many Labs a run sets up, and drops, ahead of its
// passes, so setup_s is a median of many.
const setupSamples = 60

// timingLayers maps the program's obs.Timings span names to the layer
// each one times.
var timingLayers = []struct{ span, layer string }{
	{"lab.workload", "workload"},
	{"lab.market_analysis", "market"},
	{"run.setup", "core_setup"},
	{"run.simulate", "core_simulate"},
	{"run.collect", "core_collect"},
}

// pass is one client's sweep: set up a Lab, then run and render every
// experiment.
type pass struct {
	setup    float64 // NewLab + base workload generation, seconds
	tables   float64 // first experiment call → last table rendered
	start    time.Time
	end      time.Time
	layer    map[string]float64 // per-layer numbers; traced passes only
	problems []string
}

// arrivals counts job arrivals across a Lab's simulations: the jobs
// simulated, against which completion counters are checked. A Lab runs
// its simulations one at a time on the caller's goroutine.
type arrivals struct {
	n int64
}

func (a *arrivals) Trace(e obs.Event) {
	if e.Kind == obs.EvArrive {
		a.n++
	}
}

// jobBand is how far a Lab's base workload may stray from the nominal
// job count: the workloads are defined at a stated input size, since the
// synthetic generator's job count (and with it the sweep's cost) swings
// by a factor of four between seeds at a 28-day span.
const jobBand = 0.03

// nominalJobsPerDay is Table I's 78,795 jobs over 364 days.
const nominalJobsPerDay = 78795.0 / 364

// maxLabs is the most Labs a table workload is made of. Sweeps of Labs
// of the same job count still differ in cost by ~25% (queue depths under
// fig8's 5× load), so a run whose solo sweeps drew their own Labs for
// every seed would measure its draw as much as the program. Instead a
// run is made of as many Labs as it has rounds (up to maxLabs): every
// round's solo sweep is a different one of them, the high phase sweeps
// each twice, and -seed decides only the order and the pairing. Every
// one of their tables is checked against its digest.
const maxLabs = 20

// preparedLab is a Lab set up for one pass, with the telemetry the
// pass reads attached.
type preparedLab struct {
	lab   *experiments.Lab
	seed  int64
	base  *job.Trace
	setup float64 // NewLab + base workload generation, seconds
	reg   *obs.Registry
	arr   *arrivals
	tim   *obs.Timings // nil unless traced
}

// prepare sets up the Lab of the given seed and times it.
func (w tableSweep) prepare(seed int64, traced bool) (preparedLab, error) {
	pl := preparedLab{seed: seed, reg: obs.NewRegistry(), arr: &arrivals{}}
	o := obs.Options{Metrics: pl.reg, Tracer: pl.arr}
	if traced {
		pl.tim = obs.NewTimings()
		o.Timings = pl.tim
	}
	runtime.GC() // time every set-up from the same heap state
	t := time.Now()
	pl.lab = experiments.NewLab(w.options(pl.seed))
	pl.lab.SetObs(o)
	base, err := pl.lab.BaseTrace()
	if err != nil {
		return pl, err
	}
	pl.setup = since(t)
	pl.base = base
	return pl, nil
}

// labSeeds returns the first n Lab seeds drawn from defaultSeed whose
// base workload is within jobBand of the nominal job count: the Labs
// the workload is made of, and whose tables digests.go pins.
func labSeeds(w tableSweep, n int) ([]int64, error) {
	rng := rand.New(rand.NewSource(defaultSeed))
	var seeds []int64
	for tries := 0; len(seeds) < n; tries++ {
		if tries == 100*n {
			return nil, fmt.Errorf("%s: too few Lab seeds within %.0f%% of the nominal job count", w.name, 100*jobBand)
		}
		seed := rng.Int63n(1<<31-1) + 1
		lab := experiments.NewLab(w.options(seed))
		base, err := lab.BaseTrace()
		if err != nil {
			return nil, err
		}
		want := nominalJobsPerDay * lab.Opt().WorkloadDays
		if math.Abs(float64(len(base.Jobs))-want) <= jobBand*want {
			seeds = append(seeds, seed)
		}
	}
	return seeds, nil
}

// labPool is the Labs a run is made of, in an order drawn from the
// benchmark seed.
type labPool struct {
	w     tableSweep
	order []int64
}

func newLabPool(w tableSweep, seed int64, rounds int) (*labPool, error) {
	order, err := labSeeds(w, min(rounds, maxLabs))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &labPool{w: w, order: order}, nil
}

// at sets up a fresh Lab of the i-th seed in the order, cyclically.
func (p *labPool) at(i int, traced bool) (preparedLab, error) {
	return p.w.prepare(p.order[i%len(p.order)], traced)
}

func (w tableSweep) pass(pl preparedLab, rec *recorder, req string) pass {
	p := pass{setup: pl.setup}
	var before runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&before)
	}
	lab := pl.lab
	root := rec.open("pass", 0, req)
	tables := make([]*experiments.Table, len(w.ids))
	rendered := make([]string, len(w.ids))
	calls := make([]float64, len(w.ids))
	t0 := time.Now()
	p.start = t0.Add(-time.Duration(pl.setup * float64(time.Second)))
	for i, id := range w.ids {
		e, err := experiments.ByID(id)
		if err != nil {
			p.problems = append(p.problems, err.Error())
			return p
		}
		prior := timingTotals(pl.tim)
		cs := time.Now()
		sid := rec.open("experiments."+id, root, req)
		tables[i], err = e.Run(lab)
		rec.close(sid)
		if err != nil {
			p.problems = append(p.problems, fmt.Sprintf("%s: %s: %v", req, id, err))
			return p
		}
		rid := rec.open("render", root, req)
		rendered[i] = tables[i].Markdown()
		rec.close(rid)
		calls[i] = since(cs)
		after := timingTotals(pl.tim)
		for _, tl := range timingLayers {
			if d := after[tl.span] - prior[tl.span]; d > 0 {
				rec.attr(sid, tl.layer, d)
			}
		}
	}
	p.tables = since(t0)
	rec.close(root)
	p.end = time.Now()

	want, ok := tableDigests[w.name][pl.seed]
	if !ok {
		p.problems = append(p.problems, fmt.Sprintf("%s: no table digests recorded for Lab seed %d", req, pl.seed))
	}
	p.problems = append(p.problems, checkTables(req, w.ids, tables, rendered, want)...)
	snap := pl.reg.Snapshot()
	simulated := pl.arr.n
	ended := snap.Counter("run.jobs_completed") + snap.Counter("run.jobs_unfinished") + snap.Counter("run.jobs_unrunnable")
	if ended != simulated {
		p.problems = append(p.problems, fmt.Sprintf("%s: completed+unfinished+unrunnable = %d, jobs simulated = %d", req, ended, simulated))
	}
	if rec == nil {
		return p
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.layer = make(map[string]float64)
	memDelta(p.layer, &before, &after)
	for i, id := range w.ids {
		p.layer["experiments."+id+"_s"] = calls[i]
	}
	totals := timingTotals(pl.tim)
	l := p.layer
	l["workload.generate_s"] = totals["lab.workload"]
	l["workload.jobs"] = float64(len(pl.base.Jobs))
	l["core.simulations"] = float64(snap.Counter("run.simulations"))
	l["core.setup_s"] = totals["run.setup"]
	l["core.simulate_s"] = totals["run.simulate"]
	l["core.collect_s"] = totals["run.collect"]
	l["sim.events"] = float64(snap.Counter("sim.events_dispatched"))
	l["sim.max_queue_len"] = snap.Gauge("sim.max_queue_len")
	passes := float64(snap.Counter("sched.passes"))
	l["sched.passes"] = passes
	l["sched.backfilled"] = float64(snap.Counter("sched.jobs_backfilled"))
	l["sched.queue_peak"] = snap.Gauge("sched.queue_peak")
	if s := totals["run.simulate"]; s > 0 {
		l["sim.events_per_s"] = l["sim.events"] / s
	}
	if passes > 0 {
		// Both are upper bounds: the simulate span also covers the event
		// engine, and the malloc count is the whole process's.
		l["sched.ns_per_pass"] = totals["run.simulate"] * 1e9 / passes
		l["sched.allocs_per_pass"] = l["go.mallocs"] / passes
	}
	if m := totals["lab.market_analysis"]; m > 0 {
		l["lab.market_analysis_s"] = m
		if sum, err := lab.MISOSummary(); err == nil {
			l["miso.records"] = float64(sum.Intervals)
			l["miso.records_per_s"] = float64(sum.Intervals) / m
		}
	}
	var sum float64
	for layer, s := range tableSelfTimes(rec.snapshot(), root) {
		l["self."+layer+"_s"] = s
		sum += s
	}
	l["trace.self_sum_frac"] = sum / p.tables
	return p
}

// timingTotals returns the seconds each obs.Timings span name has
// accumulated so far.
func timingTotals(t *obs.Timings) map[string]float64 {
	m := make(map[string]float64)
	for _, s := range t.Snapshot() {
		m[s.Name] = s.TotalMS / 1000
	}
	return m
}

// tableSelfTimes splits a pass span into layer self times: the
// benchmark's own glue (the pass span minus the calls it made), each
// experiment call minus the program's timed phases inside it, and those
// phases themselves. The rows sum to the pass span.
func tableSelfTimes(spans []span, root int) map[string]float64 {
	self := selfTimes(spans)
	rows := map[string]float64{"bench": self[root]}
	for _, s := range spans {
		if s.Parent != root {
			continue
		}
		own := self[s.ID]
		for layer, d := range s.Attr {
			rows[layer] += d
			own -= d
		}
		rows["experiments"] += own
	}
	return rows
}

// runTables runs a table workload for about cfg.seconds: rounds of a
// low phase (one client sweeping alone) and a high phase (one client
// per core sweeping at once), or with rec set the traced run. Every
// pass sets up its own Lab from the run's pool (see maxLabs). tables_s
// is the low phase's median time to tables; the high phase gives the
// median sweep latency and the sweep throughput under nproc concurrent
// clients.
func runTables(w tableSweep, cfg config, rec *recorder) (*report, error) {
	rep := newReport()
	deadline := time.Now().Add(time.Duration(maxOverrun * cfg.seconds * float64(time.Second)))
	clients := runtime.NumCPU()
	rounds := w.rounds(cfg.seconds, 1+highPhaseCost)
	if rec != nil {
		rounds = w.rounds(cfg.seconds, 2)
	}
	labs, err := newLabPool(w, cfg.seed, rounds)
	if err != nil {
		return nil, err
	}

	// Set-up is timed in a block of its own, between two kernel samples,
	// so setup_s is a median of many set-ups scaled by the host's speed
	// at that moment. Each Lab is dropped at once, so every set-up starts
	// from the same heap.
	var cal calibration
	settle()
	k := cal.sample()
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		pl, err := labs.at(i, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, pl.setup)
	}
	after := cal.sample()
	setup := scale(median(setups), k, after)
	k = after

	if rec != nil {
		return w.traced(rep, rounds, rec, labs, setups, deadline)
	}
	// Each phase's timings are scaled by the kernel timed on either side
	// of it (see calibrate.go): the host's speed drifts within a run.
	var tables, high []float64
	var highOut []outcome
	var highWall float64
	for round := 0; round < rounds && (round == 0 || time.Now().Before(deadline)); round++ {
		pl, err := labs.at(round, false)
		if err != nil {
			return nil, err
		}
		p := w.pass(pl, nil, fmt.Sprintf("low-%d", round))
		settle()
		after = cal.sample()
		rep.attempted++
		rep.problems = append(rep.problems, p.problems...)
		tables = append(tables, scale(p.tables, k, after))
		k = after

		pls := make([]preparedLab, clients)
		for c := range pls {
			if pls[c], err = labs.at(clients*round+c, false); err != nil {
				return nil, err
			}
		}
		ps := make([]pass, clients)
		var wg sync.WaitGroup
		t := time.Now()
		for c := range ps {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ps[c] = w.pass(pls[c], nil, fmt.Sprintf("high-%d.%d", round, c))
			}(c)
		}
		wg.Wait()
		wall := since(t)
		settle()
		after = cal.sample()
		highWall += scale(wall, k, after)
		for _, q := range ps {
			rep.attempted++
			rep.problems = append(rep.problems, q.problems...)
			high = append(high, scale(q.setup+q.tables, k, after))
			highOut = append(highOut, outcome{due: q.start, end: q.end, ok: len(q.problems) == 0})
		}
		k = after
	}

	rep.speed = cal.factor()
	rep.e2e["setup_s"] = setup
	rep.e2e["tables_s"] = median(tables)
	rep.e2e["high.latency_p50_ms"] = 1000 * median(high)
	rep.e2e["high.goodput_rps"] = goodput(highOut, w.limit, highWall)
	return rep, nil
}

// traced is the per-layer run: rounds of one untraced and one traced
// solo sweep of the same Lab, so the tracing overhead is measured
// between neighbouring passes that share the input and the machine's
// state. Per-layer numbers are medians over the traced passes.
func (w tableSweep) traced(rep *report, rounds int, rec *recorder, labs *labPool, setups []float64, deadline time.Time) (*report, error) {
	var cal calibration
	var plain, traced []pass
	for round := 0; round < rounds && (round == 0 || time.Now().Before(deadline)); round++ {
		for _, on := range []bool{false, true} {
			settle()
			cal.sample()
			pl, err := labs.at(round, on)
			if err != nil {
				return nil, err
			}
			r := rec
			if !on {
				r = nil
			}
			p := w.pass(pl, r, fmt.Sprintf("%v-%d", map[bool]string{false: "plain", true: "traced"}[on], round))
			rep.attempted++
			rep.problems = append(rep.problems, p.problems...)
			if on {
				traced = append(traced, p)
			} else {
				plain = append(plain, p)
			}
		}
	}
	rep.layer = medianLayers(traced)
	rep.layer["host.speed_factor"] = cal.factor()
	rep.layer["trace.overhead_frac"] = median(tablesOf(traced))/median(tablesOf(plain)) - 1
	rep.layerTable = renderSelfTable(w.name, traced, rep.layer)
	rep.dump["setup_s"] = setups
	return rep, nil
}

func tablesOf(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.tables
	}
	return out
}

// highPhaseCost is how many solo sweeps' time a high phase takes: its
// clients share the cores, so more than one and less than their number.
const highPhaseCost = 1.3

// maxOverrun caps a run's wall time at this multiple of -seconds: on a
// slow spell of the host a run stops starting rounds, and reports its
// medians over the rounds it made.
const maxOverrun = 1.5

// rounds is how many rounds of the given number of solo sweeps' time
// fill seconds on the machine the benchmark was sized on.
func (w tableSweep) rounds(seconds, sweeps float64) int {
	return max(1, int(seconds/(sweeps*w.passSeconds)))
}

// medianLayers reports each per-layer metric as its median over the
// traced passes.
func medianLayers(ps []pass) map[string]float64 {
	vals := make(map[string][]float64)
	for _, p := range ps {
		for k, v := range p.layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// selfRowOrder is the layer table's row order.
var selfRowOrder = []string{"bench", "experiments", "workload", "market", "core_setup", "core_simulate", "core_collect"}

func renderSelfTable(name string, ps []pass, layer map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: self time per layer, median of %d traced passes\n", name, len(ps))
	var sum float64
	for _, row := range selfRowOrder {
		s := layer["self."+row+"_s"]
		sum += s
		fmt.Fprintf(&b, "  %-14s %9.4f s\n", row, s)
	}
	var tables []float64
	for _, p := range ps {
		tables = append(tables, p.tables)
	}
	t := median(tables)
	fmt.Fprintf(&b, "  %-14s %9.4f s  (tables_s %.4f s, %.2f%% apart)\n", "sum", sum, t, 100*math.Abs(sum-t)/t)
	return b.String()
}

// checkTables runs the output checks on a sweep's tables: every table
// has rows and no NaN or Inf cell, and each rendered table hashes to
// its recorded digest.
func checkTables(req string, ids []string, tables []*experiments.Table, rendered []string, want map[string]string) []string {
	var bad []string
	for i, t := range tables {
		if t == nil {
			continue
		}
		if len(t.Rows) == 0 {
			bad = append(bad, fmt.Sprintf("%s: %s has no rows", req, ids[i]))
		}
		for _, row := range t.Rows {
			for _, cell := range row {
				if strings.Contains(cell, "NaN") || strings.Contains(cell, "Inf") {
					bad = append(bad, fmt.Sprintf("%s: %s has a %q cell", req, ids[i], cell))
				}
			}
		}
		if want != nil {
			if got := digest(rendered[i]); got != want[ids[i]] {
				bad = append(bad, fmt.Sprintf("%s: %s digest %s, want %s", req, ids[i], got, want[ids[i]]))
			}
		}
	}
	return bad
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// printDigests renders the tables of the first n Labs of the workload
// and prints their digests in tableDigests' layout.
func printDigests(w io.Writer, ts tableSweep, n int) error {
	seeds, err := labSeeds(ts, n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\t%q: {\n", ts.name)
	for _, seed := range seeds {
		fmt.Fprintf(w, "\t\t%d: {\n", seed)
		lab := experiments.NewLab(ts.options(seed))
		for _, id := range ts.ids {
			e, err := experiments.ByID(id)
			if err != nil {
				return err
			}
			t, err := e.Run(lab)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\t\t\t%q: %q,\n", id, digest(t.Markdown()))
		}
		fmt.Fprintf(w, "\t\t},\n")
	}
	fmt.Fprintf(w, "\t},\n")
	return nil
}

// settle collects garbage and returns freed memory to the OS between
// passes, so every pass starts from the same heap state and peak RSS is
// a per-pass peak rather than an accident of GC timing.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

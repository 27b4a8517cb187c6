package experiments

import (
	"fmt"
	"slices"

	"zccloud/internal/availability"
	"zccloud/internal/core"
	"zccloud/internal/job"
	"zccloud/internal/miso"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
	"zccloud/internal/stranded"
	"zccloud/internal/workload"
)

// Options scales the experiment suite. The zero value reproduces the
// paper's configuration; Quick presets shrink everything for tests and
// benchmarks.
type Options struct {
	Seed int64
	// WorkloadDays is the job-trace span (paper: 364).
	WorkloadDays float64
	// MarketDays is the MISO dataset span (paper: 834 — 28 months).
	MarketDays float64
	// WindSites is the number of wind units in the dataset (paper: 200).
	WindSites int
	// MiraNodes scales the base system (paper: 49,152).
	MiraNodes int

	// Fault knobs for the resilience experiment. FaultSeed seeds the
	// injector (0 derives from Seed); FaultMTBFHours, when positive,
	// replaces the default MTBF sweep {6 h, 24 h} with a single value;
	// BrownoutProb is the per-window brownout probability (0 disables);
	// RetryLimit bounds kill/requeue cycles (0 = unlimited).
	FaultSeed      int64
	FaultMTBFHours float64
	BrownoutProb   float64
	RetryLimit     int
}

// Quick returns a reduced preset for tests and benchmarks: one month of
// workload, two months of market data, 60 sites, brownouts enabled.
func Quick(seed int64) Options {
	return Options{Seed: seed, WorkloadDays: 28, MarketDays: 60, WindSites: 60,
		BrownoutProb: 0.25}
}

func (o Options) withDefaults() Options {
	if o.WorkloadDays == 0 {
		o.WorkloadDays = workload.TraceDays
	}
	if o.MarketDays == 0 {
		o.MarketDays = miso.PaperDays
	}
	if o.WindSites == 0 {
		o.WindSites = miso.PaperWindSites
	}
	if o.MiraNodes == 0 {
		o.MiraNodes = 49152
	}
	return o
}

// Lab memoizes the artifacts experiments share: workload traces at each
// scale/shape, the one-pass stranded-power analysis of the market
// dataset, the SP availability traces built from it, and the result of
// every simulation it has run. The market pass runs its generator on a
// second goroutine internally (miso.Generator.Stream), but a Lab is
// still not safe for concurrent use.
type Lab struct {
	opt Options
	obs obs.Options

	baseTrace *job.Trace
	scaled    map[string]*job.Trace
	runs      map[runKey]runResult

	// Every distinct SP availability trace built so far. A run's memo
	// key compares its availability by pointer, so tiled hands back the
	// earlier trace when a new one has the same windows.
	avail []*availability.IntervalTrace

	spDone     bool
	spResults  map[stranded.Model][]stranded.SiteStats // per wind unit
	spNodes    map[stranded.Model][]stranded.SiteStats // per wind node
	spObserved int64
	misoSum    miso.Summary
	nodeRegion map[int]int
}

// NewLab creates a Lab for the given options.
func NewLab(opt Options) *Lab {
	return &Lab{
		opt:        opt.withDefaults(),
		scaled:     make(map[string]*job.Trace),
		runs:       make(map[runKey]runResult),
		spResults:  make(map[stranded.Model][]stranded.SiteStats),
		spNodes:    make(map[stranded.Model][]stranded.SiteStats),
		nodeRegion: make(map[int]int),
	}
}

// Opt returns the resolved options.
func (l *Lab) Opt() Options { return l.opt }

// SetObs attaches telemetry hooks (tracer, metrics registry, progress
// reporter) that every simulation the Lab runs will use. Call before
// running experiments; the zero Options disables instrumentation.
func (l *Lab) SetObs(o obs.Options) { l.obs = o }

// Obs returns the Lab's telemetry hooks.
func (l *Lab) Obs() obs.Options { return l.obs }

// BaseTrace returns the 1xWorkload trace (memoized).
func (l *Lab) BaseTrace() (*job.Trace, error) {
	if l.baseTrace == nil {
		defer l.obs.Timings.Start("lab.workload").Stop()
		tr, err := workload.Generate(workload.Config{
			Seed:        l.opt.Seed,
			Days:        l.opt.WorkloadDays,
			SystemNodes: l.opt.MiraNodes,
			// Qsim replays the trace with exact runtimes as walltimes;
			// the experiments follow the paper's methodology.
			ExactRequests: true,
		})
		if err != nil {
			return nil, err
		}
		l.baseTrace = tr
	}
	return l.baseTrace, nil
}

// Trace returns a clone of the NxWorkload trace for the given scale
// (paper's 1x, 1.25x, 1.5x, 1.75x, 2x), generated by duplicating base
// jobs the way the paper scales workloads.
func (l *Lab) Trace(scale float64) (*job.Trace, error) {
	return l.clone(traceSpec{scale: scale})
}

// traceSpec names a workload trace in the Lab's memo.
type traceSpec struct {
	scale float64 // node-hours relative to the base trace
	// burst shapes the trace as Burst, with 2x node-hours during the up
	// windows; the memo keys it by scale alone.
	burst bool
	up    []availability.Window
	// campaign, when positive, names a trace generated afresh with this
	// submission-campaign mean and its own requests. It is not memoized.
	campaign float64
}

func (s traceSpec) key() string {
	switch {
	case s.campaign > 0:
		return fmt.Sprintf("c%g", s.campaign)
	case s.burst:
		return fmt.Sprintf("b%.3f", s.scale)
	default:
		return fmt.Sprintf("u%.3f", s.scale)
	}
}

func (l *Lab) clone(s traceSpec) (*job.Trace, error) {
	t, err := l.master(s)
	if err != nil {
		return nil, err
	}
	return t.Clone(), nil
}

// master returns the trace s names. Memoized traces are shared: a
// caller clones one before simulating it. Scale 1 is the base trace
// itself, since scaling by 1 only clones it.
func (l *Lab) master(s traceSpec) (*job.Trace, error) {
	cfg := workload.Config{Seed: l.opt.Seed, Days: l.opt.WorkloadDays, SystemNodes: l.opt.MiraNodes}
	if s.campaign > 0 {
		cfg.CampaignMean = s.campaign
		return workload.Generate(cfg)
	}
	if !s.burst && s.scale == 1 {
		return l.BaseTrace()
	}
	key := s.key()
	if t, ok := l.scaled[key]; ok {
		return t, nil
	}
	var t *job.Trace
	var err error
	if s.burst {
		cfg.Scale, cfg.Shape, cfg.UptimeWindows, cfg.ExactRequests = s.scale, workload.Burst, s.up, true
		t, err = workload.Generate(cfg)
	} else {
		var base *job.Trace
		if base, err = l.BaseTrace(); err == nil {
			t, err = workload.ScaleTrace(base, s.scale, l.opt.Seed+int64(s.scale*1000))
		}
	}
	if err != nil {
		return nil, err
	}
	l.scaled[key] = t
	return t, nil
}

// runSpec is one simulation an experiment needs: the trace it replays
// and the system it replays it on. classify, when set, sorts the run's
// completed jobs into on-time and late against its windows, for a
// baseline whose scheduler has no intermittent partition to do so.
type runSpec struct {
	trace    traceSpec
	sys      core.SystemConfig
	classify availability.Model
}

// mz declares a run of the scale-x uniform workload on Mira +
// ZCCloud(zcFactor, avail); a zero factor is Mira alone.
func (l *Lab) mz(scale, zcFactor float64, avail availability.Model) runSpec {
	r := runSpec{trace: traceSpec{scale: scale}, sys: core.SystemConfig{MiraNodes: l.opt.MiraNodes}}
	if zcFactor > 0 {
		r.sys.ZCFactor = zcFactor
		r.sys.ZCAvail = avail
	}
	return r
}

// runKey identifies a simulation within a Lab: the trace it replays,
// the whole system (availability compared by identity), and the model
// its jobs are classified against. Runs with equal keys give equal
// results.
type runKey struct {
	trace    string
	sys      core.SystemConfig
	classify availability.Model
}

// key returns s's memo key. ok is false when s injects faults or
// predicts window ends: those configs hold maps or opaque state, so
// such a run is always simulated and never stored.
func (s runSpec) key() (k runKey, ok bool) {
	if s.sys.Faults != nil || s.sys.Predictor != nil {
		return runKey{}, false
	}
	return runKey{trace: s.trace.key(), sys: s.sys, classify: s.classify}, true
}

// runResult is one run's metrics plus the per-job tallies tables read
// from its trace. The Lab may hand one result to several experiments,
// so tables only read it.
type runResult struct {
	*core.Metrics
	requeued     int       // jobs requeued at least once
	usefulNH     float64   // node-hours of completed jobs
	onTime, late accumMean // completed jobs' waits (h), when classified
}

// runAll runs specs in order, with the Lab's telemetry attached, and
// returns their results in the same order. A spec that repeats a run
// the Lab has already finished reuses its result (counted as
// run.reused) instead of simulating again. It resolves a run's trace
// only when the run starts and reduces it to the tallies before the
// next, so a run's trace is dropped as soon as it has been read. The
// first error stops it; a failed or interrupted run is not stored.
func (l *Lab) runAll(specs []runSpec) ([]runResult, error) {
	out := make([]runResult, len(specs))
	reused := l.obs.Metrics.Counter("run.reused")
	var master *job.Trace
	var masterKey string
	for i, s := range specs {
		key, memo := s.key()
		if r, ok := l.runs[key]; memo && ok {
			reused.Inc()
			out[i] = r
			continue
		}
		// Runs of one trace share its master while no other trace comes
		// between them, so a campaign trace is generated once for all of
		// them.
		if tk := s.trace.key(); master == nil || tk != masterKey {
			var err error
			if master, err = l.master(s.trace); err != nil {
				return nil, err
			}
			masterKey = tk
		}
		tr := master.Clone()
		m, err := core.Run(core.RunConfig{Trace: tr, System: s.sys, Obs: l.obs})
		if err != nil {
			return nil, err
		}
		res := runResult{Metrics: m}
		for _, j := range tr.Jobs {
			if j.Requeues > 0 {
				res.requeued++
			}
			if !j.Completed {
				continue
			}
			res.usefulNH += j.NodeHours()
			if s.classify == nil {
				continue
			}
			if w, ok := s.classify.WindowAt(j.Submit); ok && j.Submit+j.Runtime <= w.End {
				res.onTime.add(j.Wait().Hours())
			} else {
				res.late.add(j.Wait().Hours())
			}
		}
		if memo {
			l.runs[key] = res
		}
		out[i] = res
	}
	return out, nil
}

// deliveredNH is the node-hours the run delivered over all partitions.
func (r runResult) deliveredNH() float64 {
	var total float64
	for _, nh := range r.NodeHoursByPartition {
		total += nh
	}
	return total
}

// goodputPct is the share of delivered node-hours that completed jobs
// used.
func (r runResult) goodputPct() float64 {
	total := r.deliveredNH()
	if total <= 0 {
		return 0
	}
	return 100 * r.usefulNH / total
}

// wastedPct is the share of delivered node-hours that no completed job
// used: partial executions lost to kills, and checkpoint stalls.
func (r runResult) wastedPct() float64 {
	total := r.deliveredNH()
	if total <= r.usefulNH {
		return 0
	}
	return 100 * (total - r.usefulNH) / total
}

// done summarizes completion for a row ("yes" or the paper's "X").
func (r runResult) done() string {
	if r.WorkloadCompleted {
		return "yes"
	}
	return fmt.Sprintf("X (%d left)", r.Unfinished)
}

// runSPAnalysis streams the synthetic MISO dataset once through all four
// paper SP models, at two granularities: per wind unit (Figure 9) and per
// wind node — same-bus units aggregated, the paper's footnote treatment —
// for the deployment-facing results (Figures 10-12, Table VI).
func (l *Lab) runSPAnalysis() error {
	if l.spDone {
		return nil
	}
	defer l.obs.Timings.Start("lab.market_analysis").Stop()
	gen, err := miso.NewGenerator(miso.Config{
		Seed:      l.opt.Seed,
		Days:      l.opt.MarketDays,
		WindSites: l.opt.WindSites,
	})
	if err != nil {
		return err
	}
	nodes := gen.NodeCount()
	unitAn := make([]*stranded.Analysis, len(stranded.PaperModels))
	nodeAn := make([]*stranded.Analysis, len(stranded.PaperModels))
	for i, m := range stranded.PaperModels {
		unitAn[i] = stranded.NewAnalysis(m, l.opt.WindSites)
		nodeAn[i] = stranded.NewAnalysis(m, nodes)
	}
	var nodeRecs []miso.Record
	err = gen.Stream(func(batch []miso.Record) error {
		for _, a := range unitAn {
			for _, r := range batch {
				a.Observe(r)
			}
		}
		nodeRecs = sumNodes(gen, batch, l.opt.WindSites, nodes, nodeRecs[:0])
		for _, a := range nodeAn {
			for _, r := range nodeRecs {
				a.Observe(r)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, m := range stranded.PaperModels {
		l.spResults[m] = unitAn[i].Results()
		res := nodeAn[i].Results()
		l.spNodes[m] = res
		if len(res) > 0 {
			l.spObserved = res[0].Observed
		}
	}
	for n := 0; n < nodes; n++ {
		l.nodeRegion[n] = gen.NodeRegion(n)
	}
	l.misoSum = gen.Summary()
	l.spDone = true
	return nil
}

// sumNodes appends to out one record per wind node for each interval of
// batch, which holds sites records per interval: delivered and offered
// MW summed over the node's sites in site order, and the LMP of its last
// site (the sites of a node share its bus price).
func sumNodes(gen *miso.Generator, batch []miso.Record, sites, nodes int, out []miso.Record) []miso.Record {
	for len(batch) >= sites {
		iv := batch[:sites]
		batch = batch[sites:]
		base := len(out)
		for n := 0; n < nodes; n++ {
			out = append(out, miso.Record{Interval: iv[0].Interval, Site: int32(n)})
		}
		for _, r := range iv {
			nr := &out[base+gen.SiteNode(int(r.Site))]
			nr.DeliveredMW += r.DeliveredMW
			nr.EconomicMaxMW += r.EconomicMaxMW
			nr.LMP = r.LMP
		}
	}
	return out
}

// SPResults returns per-unit stranded-power stats for a model, ordered by
// descending duty factor (Figure 9's population).
func (l *Lab) SPResults(m stranded.Model) ([]stranded.SiteStats, error) {
	if err := l.runSPAnalysis(); err != nil {
		return nil, err
	}
	res, ok := l.spResults[m]
	if !ok {
		return nil, fmt.Errorf("experiments: model %v not analyzed", m)
	}
	return res, nil
}

// SPNodeResults returns per-node stats (same-bus units aggregated, the
// paper's footnote treatment), ordered by descending duty factor.
func (l *Lab) SPNodeResults(m stranded.Model) ([]stranded.SiteStats, error) {
	if err := l.runSPAnalysis(); err != nil {
		return nil, err
	}
	res, ok := l.spNodes[m]
	if !ok {
		return nil, fmt.Errorf("experiments: model %v not analyzed", m)
	}
	return res, nil
}

// SPObserved returns the number of market intervals each site observed.
func (l *Lab) SPObserved() (int64, error) {
	if err := l.runSPAnalysis(); err != nil {
		return 0, err
	}
	return l.spObserved, nil
}

// MISOSummary returns the Table III statistics of the synthetic dataset.
func (l *Lab) MISOSummary() (miso.Summary, error) {
	if err := l.runSPAnalysis(); err != nil {
		return miso.Summary{}, err
	}
	return l.misoSum, nil
}

// NodeRegion returns the grid region index of a wind node.
func (l *Lab) NodeRegion(node int) (int, error) {
	if err := l.runSPAnalysis(); err != nil {
		return 0, err
	}
	return l.nodeRegion[node], nil
}

// BestSite returns the highest-duty-factor wind node's stats under a
// model (the deployment site of Section VI, Table VI).
func (l *Lab) BestSite(m stranded.Model) (stranded.SiteStats, error) {
	res, err := l.SPNodeResults(m)
	if err != nil {
		return stranded.SiteStats{}, err
	}
	if len(res) == 0 {
		return stranded.SiteStats{}, fmt.Errorf("experiments: no sites analyzed")
	}
	return res[0], nil
}

// BestSiteAvailability converts the best site's SP intervals under a
// model into an availability trace for the ZCCloud partition, repeating
// or truncating to cover the workload span.
func (l *Lab) BestSiteAvailability(m stranded.Model) (*availability.IntervalTrace, error) {
	best, err := l.BestSite(m)
	if err != nil {
		return nil, err
	}
	return l.tiled(stranded.Windows(best.Intervals)), nil
}

// MultiSiteAvailability returns the union availability of the top-N wind
// nodes under a model (Section VIII future work: multi-site ZCCloud).
func (l *Lab) MultiSiteAvailability(m stranded.Model, n int) (*availability.IntervalTrace, error) {
	res, err := l.SPNodeResults(m)
	if err != nil {
		return nil, err
	}
	var all []availability.Window
	for i := 0; i < n && i < len(res); i++ {
		all = append(all, stranded.Windows(res[i].Intervals)...)
	}
	return l.tiled(availability.Normalize(all)), nil
}

// tiled turns market-span windows into an availability trace. The
// market dataset may be shorter than the workload span, so the windows
// repeat with the market's period until the workload is covered. Equal
// windows give the identical trace: tiled returns the Lab's earlier
// trace when it has one with the same windows.
func (l *Lab) tiled(ws []availability.Window) *availability.IntervalTrace {
	span := sim.Time(l.opt.WorkloadDays * float64(sim.Day))
	market := sim.Time(l.opt.MarketDays * float64(sim.Day))
	tiled := ws
	if market > 0 {
		tiled = nil
		for off := sim.Time(0); off < span+sim.Day; off += market {
			for _, w := range ws {
				tiled = append(tiled, availability.Window{Start: w.Start + off, End: w.End + off})
			}
		}
	}
	t := availability.NewIntervalTrace(tiled)
	for _, prev := range l.avail {
		if slices.Equal(prev.Windows(), t.Windows()) {
			return prev
		}
	}
	l.avail = append(l.avail, t)
	return t
}

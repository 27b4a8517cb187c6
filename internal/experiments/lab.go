package experiments

import (
	"fmt"

	"zccloud/internal/availability"
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
// scale/shape and the one-pass stranded-power analysis of the market
// dataset. The market pass runs its generator on a second goroutine
// internally (miso.Generator.Stream), but a Lab is still not safe for
// concurrent use.
type Lab struct {
	opt Options
	obs obs.Options

	baseTrace *job.Trace
	scaled    map[string]*job.Trace

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
	key := fmt.Sprintf("u%.3f", scale)
	if t, ok := l.scaled[key]; ok {
		return t.Clone(), nil
	}
	base, err := l.BaseTrace()
	if err != nil {
		return nil, err
	}
	t, err := workload.ScaleTrace(base, scale, l.opt.Seed+int64(scale*1000))
	if err != nil {
		return nil, err
	}
	l.scaled[key] = t
	return t.Clone(), nil
}

// BurstTrace returns a Burst-shaped trace at the given scale, with 2x
// node-hours during the given uptime windows (paper, Figure 7).
func (l *Lab) BurstTrace(scale float64, up []availability.Window) (*job.Trace, error) {
	key := fmt.Sprintf("b%.3f", scale)
	if t, ok := l.scaled[key]; ok {
		return t.Clone(), nil
	}
	t, err := workload.Generate(workload.Config{
		Seed:          l.opt.Seed,
		Days:          l.opt.WorkloadDays,
		SystemNodes:   l.opt.MiraNodes,
		Scale:         scale,
		Shape:         workload.Burst,
		UptimeWindows: up,
		ExactRequests: true,
	})
	if err != nil {
		return nil, err
	}
	l.scaled[key] = t
	return t.Clone(), nil
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
	ws := stranded.Windows(best.Intervals)
	// The market dataset may be shorter than the workload span; tile the
	// windows periodically so the workload is always covered.
	span := sim.Time(l.opt.WorkloadDays * float64(sim.Day))
	market := sim.Time(l.opt.MarketDays * float64(sim.Day))
	if market <= 0 {
		return availability.NewIntervalTrace(ws), nil
	}
	var tiled []availability.Window
	for off := sim.Time(0); off < span+sim.Day; off += market {
		for _, w := range ws {
			tiled = append(tiled, availability.Window{Start: w.Start + off, End: w.End + off})
		}
	}
	return availability.NewIntervalTrace(tiled), nil
}

// MultiSiteAvailability returns the union availability of the top-N wind
// nodes under a model (Section VIII future work: multi-site ZCCloud).
func (l *Lab) MultiSiteAvailability(m stranded.Model, n int) (*availability.IntervalTrace, error) {
	res, err := l.SPNodeResults(m)
	if err != nil {
		return nil, err
	}
	if n > len(res) {
		n = len(res)
	}
	var all []availability.Window
	for i := 0; i < n; i++ {
		all = append(all, stranded.Windows(res[i].Intervals)...)
	}
	span := sim.Time(l.opt.WorkloadDays * float64(sim.Day))
	market := sim.Time(l.opt.MarketDays * float64(sim.Day))
	norm := availability.Normalize(all)
	var tiled []availability.Window
	for off := sim.Time(0); off < span+sim.Day; off += market {
		for _, w := range norm {
			tiled = append(tiled, availability.Window{Start: w.Start + off, End: w.End + off})
		}
	}
	return availability.NewIntervalTrace(tiled), nil
}

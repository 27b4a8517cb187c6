package experiments

import (
	"errors"
	"reflect"
	"testing"

	"zccloud/internal/availability"
	"zccloud/internal/core"
	"zccloud/internal/faults"
	"zccloud/internal/miso"
	"zccloud/internal/obs"
	"zccloud/internal/sched"
	"zccloud/internal/sim"
	"zccloud/internal/stranded"
)

// TestLabMarketPassMatchesSequential holds the Lab's pipelined market
// pass to a sequential reference: one goroutine, a plain Next loop,
// every record observed as it is produced, node sums per interval.
// Every result the pass memoizes must be identical.
func TestLabMarketPassMatchesSequential(t *testing.T) {
	opt := Options{Seed: 5, MarketDays: 3.4, WindSites: 40}
	l := NewLab(opt)

	gen, err := miso.NewGenerator(miso.Config{Seed: opt.Seed, Days: opt.MarketDays, WindSites: opt.WindSites})
	if err != nil {
		t.Fatal(err)
	}
	nodes := gen.NodeCount()
	unitAn := make([]*stranded.Analysis, len(stranded.PaperModels))
	nodeAn := make([]*stranded.Analysis, len(stranded.PaperModels))
	for i, m := range stranded.PaperModels {
		unitAn[i] = stranded.NewAnalysis(m, opt.WindSites)
		nodeAn[i] = stranded.NewAnalysis(m, nodes)
	}
	var buf []miso.Record
	nodeDel := make([]float64, nodes)
	nodeMax := make([]float64, nodes)
	nodeLMP := make([]float64, nodes)
	for {
		var ok bool
		if buf, ok = gen.Next(buf); !ok {
			break
		}
		for i := range nodeDel {
			nodeDel[i], nodeMax[i] = 0, 0
		}
		for _, r := range buf {
			for _, a := range unitAn {
				a.Observe(r)
			}
			n := gen.SiteNode(int(r.Site))
			nodeDel[n] += r.DeliveredMW
			nodeMax[n] += r.EconomicMaxMW
			nodeLMP[n] = r.LMP
		}
		for n := 0; n < nodes; n++ {
			for _, a := range nodeAn {
				a.ObserveValues(n, buf[0].Interval, nodeLMP[n], nodeDel[n], nodeMax[n])
			}
		}
	}

	for i, m := range stranded.PaperModels {
		got, err := l.SPResults(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := unitAn[i].Results(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: per-unit results differ from the sequential pass", m)
		}
		gotNodes, err := l.SPNodeResults(m)
		if err != nil {
			t.Fatal(err)
		}
		wantNodes := nodeAn[i].Results()
		if !reflect.DeepEqual(gotNodes, wantNodes) {
			t.Errorf("%v: per-node results differ from the sequential pass", m)
		}
		if observed, _ := l.SPObserved(); observed != wantNodes[0].Observed {
			t.Errorf("observed %d intervals, want %d", observed, wantNodes[0].Observed)
		}
	}
	if sum, _ := l.MISOSummary(); sum != gen.Summary() {
		t.Errorf("summary %+v, want %+v", sum, gen.Summary())
	}
	for n := 0; n < nodes; n++ {
		if reg, _ := l.NodeRegion(n); reg != gen.NodeRegion(n) {
			t.Errorf("node %d region %d, want %d", n, reg, gen.NodeRegion(n))
		}
	}
}

// TestRunAllStopsAtInterrupt: the executor hands an interrupt back
// unchanged, resolves no trace for the runs after it and stores nothing,
// so an uninterrupted retry simulates the interrupted run.
func TestRunAllStopsAtInterrupt(t *testing.T) {
	l := NewLab(Options{Seed: 1, WorkloadDays: 3, MiraNodes: 4096})
	stop := true
	reg := obs.NewRegistry()
	l.SetObs(obs.Options{Metrics: reg, Interrupt: func() bool { return stop }})
	specs := []runSpec{l.mz(1, 0, nil), l.mz(1.5, 1, core.DutyAvailability(0.5, zcPhase))}
	res, err := l.runAll(specs)
	if !errors.Is(err, sched.ErrInterrupted) || res != nil {
		t.Fatalf("runAll = %v, %v; want no results and sched.ErrInterrupted", res, err)
	}
	if len(l.scaled) != 0 {
		t.Errorf("memoized %d traces; want none, the 1.5x run never started", len(l.scaled))
	}

	stop = false
	if res, err = l.runAll(specs); err != nil || len(res) != 2 {
		t.Fatalf("retry: runAll = %v, %v", res, err)
	}
	snap := reg.Snapshot()
	if sims, reused := snap.Counter("run.simulations"), snap.Counter("run.reused"); sims != 2 || reused != 0 {
		t.Errorf("retry simulated %d and reused %d runs; want 2 and 0", sims, reused)
	}
}

// TestRunAllReusesIdenticalRuns: Figure 6 repeats Figure 5's two M-Z
// runs, so after Figure 5 it simulates only its classified baseline, and
// its table is the one a fresh Lab renders.
func TestRunAllReusesIdenticalRuns(t *testing.T) {
	opt := Options{Seed: 1, WorkloadDays: 3, MiraNodes: 4096}
	l := NewLab(opt)
	reg := obs.NewRegistry()
	l.SetObs(obs.Options{Metrics: reg})
	if _, err := Fig5(l); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	warm, err := Fig6(l)
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()
	sims := after.Counter("run.simulations") - before.Counter("run.simulations")
	reused := after.Counter("run.reused") - before.Counter("run.reused")
	if sims != 1 || reused != 2 {
		t.Errorf("fig6 after fig5 simulated %d and reused %d runs; want 1 and 2", sims, reused)
	}
	cold, err := Fig6(NewLab(opt))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Markdown() != cold.Markdown() {
		t.Errorf("fig6 on a warm Lab:\n%s\non a fresh Lab:\n%s", warm.Markdown(), cold.Markdown())
	}
}

// fixedEnd is a window-end predictor for key tests.
type fixedEnd sim.Duration

func (f fixedEnd) PredictedEnd(start, now sim.Time) sim.Time { return start + sim.Time(f) }

// TestRunKeyDistinguishesSpecs: a run's memo key changes with every
// SystemConfig field, the trace and the classification model, and specs
// that inject faults or predict window ends have no key.
func TestRunKeyDistinguishesSpecs(t *testing.T) {
	l := NewLab(Options{Seed: 1, WorkloadDays: 3, MarketDays: 5, WindSites: 12, MiraNodes: 4096})
	base := l.mz(1, 1, core.DutyAvailability(0.5, zcPhase))
	baseKey, ok := base.key()
	if !ok {
		t.Fatal("a plain M-Z run has no key")
	}
	keys := map[runKey]string{baseKey: "base"}
	distinct := func(name string, s runSpec) {
		t.Helper()
		k, ok := s.key()
		if !ok {
			t.Errorf("%s: no key", name)
			return
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("%s: same key as %s", name, prev)
		}
		keys[k] = name
	}

	v := reflect.ValueOf(&base.sys).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		s := base
		f := reflect.ValueOf(&s.sys).Elem().Field(i)
		switch name {
		case "Faults":
			s.sys.Faults = &faults.Config{}
			if _, ok := s.key(); ok {
				t.Error("a spec with faults has a key")
			}
			continue
		case "Predictor":
			s.sys.Predictor = fixedEnd(sim.Hour)
			if _, ok := s.key(); ok {
				t.Error("a spec with a predictor has a key")
			}
			continue
		case "ZCAvail":
			s.sys.ZCAvail = core.DutyAvailability(0.25, zcPhase)
		default:
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("SystemConfig.%s: no flip for kind %v", name, f.Kind())
			}
		}
		distinct(name, s)
	}

	scaled := base
	scaled.trace.scale = 1.5
	distinct("trace scale", scaled)
	burst := base
	burst.trace.burst = true
	distinct("burst trace", burst)
	campaign := base
	campaign.trace = traceSpec{campaign: 2}
	distinct("campaign trace", campaign)
	classified := base
	classified.classify = core.DutyAvailability(0.5, zcPhase)
	distinct("classify", classified)

	// Identical SP availability is the identical trace, so runs on it
	// share a key.
	model := stranded.Model{Kind: stranded.NetPrice}
	for name, avail := range map[string]func() (*availability.IntervalTrace, error){
		"BestSiteAvailability":  func() (*availability.IntervalTrace, error) { return l.BestSiteAvailability(model) },
		"MultiSiteAvailability": func() (*availability.IntervalTrace, error) { return l.MultiSiteAvailability(model, 3) },
	} {
		first, err := avail()
		if err != nil {
			t.Fatal(err)
		}
		again, err := avail()
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Errorf("%s built a second trace for the same arguments", name)
		}
	}
	// A 1-site union has the best site's windows, so it is the same
	// trace even though it is built another way.
	best, err := l.BestSiteAvailability(model)
	if err != nil {
		t.Fatal(err)
	}
	one, err := l.MultiSiteAvailability(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best != one {
		t.Error("the 1-site union is a second trace with the best site's windows")
	}
}

// TestScaleOneIsBaseTrace: Mira@1x and M-Z@1x share the base trace,
// with no second memoized copy of it.
func TestScaleOneIsBaseTrace(t *testing.T) {
	l := NewLab(Options{Seed: 1, WorkloadDays: 3, MiraNodes: 4096})
	res, err := l.runAll([]runSpec{l.mz(1, 0, nil), l.mz(1, 1, core.DutyAvailability(0.5, zcPhase))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Completed == 0 {
		t.Fatalf("results %+v", res)
	}
	if len(l.scaled) != 0 {
		t.Errorf("memoized %d traces; want none", len(l.scaled))
	}
	base, err := l.BaseTrace()
	if err != nil {
		t.Fatal(err)
	}
	one, err := l.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, base) || one.Jobs[0] == base.Jobs[0] {
		t.Error("Trace(1) is not a fresh clone of the base trace")
	}
}

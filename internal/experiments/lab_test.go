package experiments

import (
	"errors"
	"reflect"
	"testing"

	"zccloud/internal/miso"
	"zccloud/internal/obs"
	"zccloud/internal/sched"
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
// unchanged and resolves no trace for the runs after it.
func TestRunAllStopsAtInterrupt(t *testing.T) {
	l := NewLab(Options{Seed: 1, WorkloadDays: 3, MiraNodes: 4096})
	l.SetObs(obs.Options{Interrupt: func() bool { return true }})
	res, err := l.runAll([]runSpec{l.mz(1, 0, nil), l.mz(1.5, 1, periodicZC(0.5))})
	if !errors.Is(err, sched.ErrInterrupted) || res != nil {
		t.Fatalf("runAll = %v, %v; want no results and sched.ErrInterrupted", res, err)
	}
	if len(l.scaled) != 0 {
		t.Errorf("memoized %d traces; want none, the 1.5x run never started", len(l.scaled))
	}
}

// TestScaleOneIsBaseTrace: Mira@1x and M-Z@1x share the base trace,
// with no second memoized copy of it.
func TestScaleOneIsBaseTrace(t *testing.T) {
	l := NewLab(Options{Seed: 1, WorkloadDays: 3, MiraNodes: 4096})
	res, err := l.runAll([]runSpec{l.mz(1, 0, nil), l.mz(1, 1, periodicZC(0.5))})
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

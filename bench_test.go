package zccloud

// One benchmark per table and figure of the paper's evaluation, each
// regenerating its artifact at the Quick preset (28-day workload, 60-day
// market, 60 sites), plus micro-benchmarks of the hot paths. Run with
//
//	go test -bench=. -benchmem
//
// Paper-scale runs are the zccexp command's job; these benches exist so
// the full reproduction pipeline is exercised and timed on every change.

import (
	"fmt"
	"testing"
)

// benchLab memoizes one Lab per seed across benchmark iterations of a
// single `go test` process — experiments share workload and market
// artifacts exactly as cmd/zccexp does.
var benchLabs = map[int64]*Lab{}

func labFor(seed int64) *Lab {
	l, ok := benchLabs[seed]
	if !ok {
		l = NewLab(QuickOptions(seed))
		benchLabs[seed] = l
	}
	return l
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	lab := labFor(42)
	// Warm the shared artifacts outside the timed region.
	if _, err := RunExperiment(id, lab); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment(id, lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Workload(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable2Parameters(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkFig5WaitBySize(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6OnTimeLate(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7WorkloadScale(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8Throughput(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkTable3Dataset(b *testing.B)         { benchExperiment(b, "table3") }
func BenchmarkTable4Schema(b *testing.B)          { benchExperiment(b, "table4") }
func BenchmarkTable5SPModels(b *testing.B)        { benchExperiment(b, "table5") }
func BenchmarkFig9DutyHistogram(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10Intervals(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11Cumulative(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12StrandedVsTop500(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkTable6BestSites(b *testing.B)       { benchExperiment(b, "table6") }
func BenchmarkTable7Parameters(b *testing.B)      { benchExperiment(b, "table7") }
func BenchmarkFig13PeriodicVsSP(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14SPWorkloads(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15SystemSize(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkMultisite(b *testing.B)             { benchExperiment(b, "multisite") }
func BenchmarkKillRequeue(b *testing.B)           { benchExperiment(b, "killrequeue") }
func BenchmarkPrediction(b *testing.B)            { benchExperiment(b, "prediction") }
func BenchmarkBackfillAblation(b *testing.B)      { benchExperiment(b, "backfill") }
func BenchmarkBurstinessAblation(b *testing.B)    { benchExperiment(b, "burstiness") }
func BenchmarkEconomics(b *testing.B)             { benchExperiment(b, "economics") }
func BenchmarkCheckpoint(b *testing.B)            { benchExperiment(b, "checkpoint") }
func BenchmarkCAISO(b *testing.B)                 { benchExperiment(b, "caiso") }

// --- micro-benchmarks of the pipeline stages ---

// BenchmarkWorkloadGeneration times one month of synthetic trace.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateWorkload(WorkloadConfig{Seed: int64(i), Days: 28}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerMonth times a full scheduling simulation of one month
// on Mira + 1xMira ZCCloud at 50% duty.
func BenchmarkSchedulerMonth(b *testing.B) {
	tr, err := GenerateWorkload(WorkloadConfig{Seed: 1, Days: 28})
	if err != nil {
		b.Fatal(err)
	}
	zc := NewPeriodic(0.5, 20*Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(RunConfig{
			Trace:  tr.Clone(),
			System: SystemConfig{ZCFactor: 1, ZCAvail: zc},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerDeepQueue times a 7-day simulation at fig8's heaviest
// cell: the workload scaled 5x on Mira + 4xMira ZCCloud at 100% duty.
// Five times the machine runs five times the jobs at once, so every EASY
// reservation search replays a long release list (about 33 releases per
// earliestStart call here, against about 10 in BenchmarkSchedulerMonth).
func BenchmarkSchedulerDeepQueue(b *testing.B) {
	base, err := GenerateWorkload(WorkloadConfig{Seed: 1, Days: 7})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := ScaleWorkload(base, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(RunConfig{
			Trace:  tr.Clone(),
			System: SystemConfig{ZCFactor: 4, ZCAvail: AlwaysOn{}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarketDay times one day of 5-minute market clearing with 200
// wind sites (288 dispatches).
func BenchmarkMarketDay(b *testing.B) {
	gen, err := NewMarketDataset(MarketConfig{Seed: 1, Days: float64(b.N), WindSites: 200})
	if err != nil {
		b.Fatal(err)
	}
	var buf []MarketRecord
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 288; k++ {
			var ok bool
			buf, ok = gen.Next(buf)
			if !ok {
				b.Fatal("dataset exhausted")
			}
		}
	}
}

// BenchmarkSPAnalysisDay times stranded-power extraction over one day of
// records for 200 sites under all four paper models.
func BenchmarkSPAnalysisDay(b *testing.B) {
	gen, err := NewMarketDataset(MarketConfig{Seed: 1, Days: 30, WindSites: 200})
	if err != nil {
		b.Fatal(err)
	}
	var day [][]MarketRecord
	var buf []MarketRecord
	for k := 0; k < 288; k++ {
		var ok bool
		buf, ok = gen.Next(buf[:0:0])
		if !ok {
			b.Fatal("dataset exhausted")
		}
		day = append(day, buf)
		buf = nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyses := make([]*SPAnalysis, len(PaperSPModels))
		for k, m := range PaperSPModels {
			analyses[k] = NewSPAnalysis(m, 200)
		}
		for _, batch := range day {
			for _, r := range batch {
				for _, a := range analyses {
					a.Observe(r)
				}
			}
		}
	}
}

// BenchmarkScaleWorkload times the paper's NxWorkload duplication.
func BenchmarkScaleWorkload(b *testing.B) {
	tr, err := GenerateWorkload(WorkloadConfig{Seed: 1, Days: 28})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScaleWorkload(tr, 1.5, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndEventsPerSec is the perf-baseline anchor: a complete
// month-long Mira + 1xZCCloud simulation, reported as dispatched engine
// events per wall-clock second (the simulator's natural throughput
// unit). cmd/zccbench records it in BENCH_PR15.json so regressions show
// up as a ratio against a committed baseline.
func BenchmarkEndToEndEventsPerSec(b *testing.B) {
	tr, err := GenerateWorkload(WorkloadConfig{Seed: 1, Days: 28})
	if err != nil {
		b.Fatal(err)
	}
	zc := NewPeriodic(0.5, 20*Hour)
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := NewMetricsRegistry()
		if _, err := Simulate(RunConfig{
			Trace:  tr.Clone(),
			System: SystemConfig{ZCFactor: 1, ZCAvail: zc},
			Obs:    ObsOptions{Metrics: reg},
		}); err != nil {
			b.Fatal(err)
		}
		events += int64(reg.Snapshot().Counter("sim.events_dispatched"))
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// Example-style smoke test making sure the benches' shared lab matches
// the command-line path.
func TestBenchLabSmoke(t *testing.T) {
	tb, err := RunExperiment("table1", labFor(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("table1 empty")
	}
	if _, err := RunExperiment("bogus", labFor(42)); err == nil {
		t.Fatal("unknown experiment should error")
	}
	fmt.Println(tb.Text())
}

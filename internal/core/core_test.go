package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"zccloud/internal/availability"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
	"zccloud/internal/workload"
)

// smallTrace generates a week of workload scaled to a small machine.
func smallTrace(t *testing.T, seed int64, scale float64) *job.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		Seed:  seed,
		Days:  7,
		Scale: scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestValidate(t *testing.T) {
	bad := []SystemConfig{
		{MiraNodes: -1},
		{ZCFactor: -0.5},
		{ZCFactor: 1}, // no availability model
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if err := (SystemConfig{}).Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
}

func TestBuildMachine(t *testing.T) {
	m, err := BuildMachine(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Partition(MiraPartition) == nil || m.Partition(MiraPartition).Nodes != 49152 {
		t.Error("default machine should be Mira-sized")
	}
	if m.Partition(ZCPartition) != nil {
		t.Error("no ZC partition without ZCFactor")
	}

	m, err = BuildMachine(SystemConfig{
		ZCFactor: 2,
		ZCAvail:  availability.NewPeriodic(0.5, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if zc := m.Partition(ZCPartition); zc == nil || zc.Nodes != 2*49152 {
		t.Error("2xMira ZC partition wrong")
	}
}

func TestRunEmptyTrace(t *testing.T) {
	if _, err := Run(RunConfig{Trace: &job.Trace{}}); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := Run(RunConfig{Trace: nil}); err == nil {
		t.Error("nil trace should fail")
	}
}

func TestMiraOnlyBaseline(t *testing.T) {
	tr := smallTrace(t, 1, 1)
	m, err := Run(RunConfig{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !m.WorkloadCompleted {
		t.Fatalf("1xWorkload should complete on Mira: %+v", m)
	}
	if m.Completed != len(tr.Jobs)-m.Unrunnable {
		t.Errorf("completed %d of %d", m.Completed, len(tr.Jobs))
	}
	if m.AvgWaitHrs < 0 {
		t.Error("negative wait")
	}
	if m.UtilizationByPartition[MiraPartition] <= 0 ||
		m.UtilizationByPartition[MiraPartition] > 1.01 {
		t.Errorf("utilization = %v", m.UtilizationByPartition)
	}
	if m.ZCShareOfWork != 0 {
		t.Error("ZC share should be 0 without ZC")
	}
	if m.ThroughputJobsPerDay <= 0 {
		t.Error("throughput should be positive")
	}
}

// TestZCCloudReducesWait is the headline qualitative result (Figure 7):
// adding intermittent resources to the same workload cuts average wait.
func TestZCCloudReducesWait(t *testing.T) {
	tr := smallTrace(t, 2, 1.25) // somewhat loaded
	base, err := Run(RunConfig{Trace: tr.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	mz, err := Run(RunConfig{
		Trace: tr.Clone(),
		System: SystemConfig{
			ZCFactor: 1,
			ZCAvail:  availability.NewPeriodic(0.5, 20*sim.Hour),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("base wait %.2f h, M-Z wait %.2f h", base.AvgWaitHrs, mz.AvgWaitHrs)
	if mz.AvgWaitHrs >= base.AvgWaitHrs {
		t.Errorf("ZCCloud did not reduce wait: %.2f >= %.2f", mz.AvgWaitHrs, base.AvgWaitHrs)
	}
	if mz.ZCShareOfWork <= 0 {
		t.Error("ZC partition did no work")
	}
	if mz.OnTimeJobs+mz.LateJobs != mz.Completed+mz.Unfinished {
		t.Logf("classified %d+%d of %d jobs", mz.OnTimeJobs, mz.LateJobs, mz.Completed)
	}
	if mz.OnTimeJobs == 0 || mz.LateJobs == 0 {
		t.Error("both timeliness classes should be populated")
	}
}

func TestSizeBins(t *testing.T) {
	tr := smallTrace(t, 3, 1)
	m, err := Run(RunConfig{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.AvgWaitBySize) != len(sizeBinBounds) {
		t.Fatalf("bins = %d", len(m.AvgWaitBySize))
	}
	total := 0
	for _, b := range m.AvgWaitBySize {
		total += b.Jobs
		if b.AvgWaitHrs < 0 {
			t.Errorf("bin %s negative wait", b.Label)
		}
	}
	if total != m.Completed {
		t.Errorf("bin jobs sum %d != completed %d", total, m.Completed)
	}
	// percentiles ordered
	if m.P50WaitHrs > m.P90WaitHrs || m.P90WaitHrs > m.MaxWaitHrs {
		t.Errorf("percentiles out of order: %v %v %v", m.P50WaitHrs, m.P90WaitHrs, m.MaxWaitHrs)
	}
}

func TestSizeBinIndex(t *testing.T) {
	cases := []struct{ nodes, bin int }{
		{1, 0}, {511, 0}, {512, 1}, {1024, 1}, {1025, 2},
		{8192, 4}, {8193, 5}, {49152, 7}, {60000, 7},
	}
	for _, c := range cases {
		if got := sizeBinIndex(c.nodes); got != c.bin {
			t.Errorf("sizeBinIndex(%d) = %d, want %d", c.nodes, got, c.bin)
		}
	}
}

func TestOverloadMarksIncomplete(t *testing.T) {
	// 3x the workload on a bare Mira with a short deadline cannot finish.
	tr := smallTrace(t, 4, 3)
	_, last := tr.Span()
	m, err := Run(RunConfig{Trace: tr, Deadline: last})
	if err != nil {
		t.Fatal(err)
	}
	if m.WorkloadCompleted {
		t.Error("3xWorkload with no drain time should not complete")
	}
	if m.Unfinished == 0 {
		t.Error("expected unfinished jobs")
	}
}

func TestDeterministicMetrics(t *testing.T) {
	tr := smallTrace(t, 5, 1)
	run := func() *Metrics {
		m, err := Run(RunConfig{
			Trace: tr.Clone(),
			System: SystemConfig{
				ZCFactor: 1,
				ZCAvail:  availability.NewPeriodic(0.25, 0),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.AvgWaitHrs != b.AvgWaitHrs || a.Completed != b.Completed ||
		a.ZCShareOfWork != b.ZCShareOfWork {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestNonOracleRuns(t *testing.T) {
	tr := smallTrace(t, 6, 1)
	m, err := Run(RunConfig{
		Trace: tr,
		System: SystemConfig{
			ZCFactor:  1,
			ZCAvail:   availability.NewPeriodic(0.5, 0),
			NonOracle: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed == 0 {
		t.Error("non-oracle run completed nothing")
	}
}

// ctxCancelTracer cancels a context after n traced events: deterministic
// mid-run cancellation driven by the simulation itself.
type ctxCancelTracer struct {
	after  int
	seen   int
	cancel context.CancelFunc
}

func (c *ctxCancelTracer) Trace(obs.Event) {
	c.seen++
	if c.seen == c.after {
		c.cancel()
	}
}

// TestRunContextCancelAndResume: a context-cancelled run returns
// *Interrupted with a usable snapshot, and resuming it yields the same
// metrics as a run that was never cancelled.
func TestRunContextCancelAndResume(t *testing.T) {
	tr := smallTrace(t, 3, 1)
	want, err := Run(RunConfig{Trace: tr.Clone()})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunContext(ctx, RunConfig{
		Trace: tr.Clone(),
		Obs:   obs.Options{Tracer: &ctxCancelTracer{after: 500, cancel: cancel}},
	})
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("cancelled run err = %v, want *Interrupted", err)
	}
	if intr.Snapshot == nil {
		t.Fatal("interrupted run carried no snapshot")
	}
	got, err := Resume(RunConfig{Trace: tr.Clone()}, intr.Snapshot)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed metrics differ:\n got %+v\nwant %+v", got, want)
	}

	// A context dead before the run starts interrupts before any event.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := RunContext(dead, RunConfig{Trace: tr.Clone()}); !errors.As(err, &intr) {
		t.Fatalf("dead-context run err = %v, want *Interrupted", err)
	}
}

func TestDutyAvailability(t *testing.T) {
	if _, ok := DutyAvailability(1, 0).(availability.AlwaysOn); !ok {
		t.Error("a duty of 1 is not always on")
	}
	p, ok := DutyAvailability(0.25, 3*sim.Hour).(availability.Periodic)
	if !ok || p != availability.NewPeriodic(0.25, 3*sim.Hour) {
		t.Errorf("duty 0.25 from 03:00 = %#v", p)
	}
}

func TestFaultKnobsConfig(t *testing.T) {
	if fc := (FaultKnobs{Seed: 9, BackoffJitter: true}).Config(4096, true); fc != nil {
		t.Fatalf("knobs with nothing armed built %+v", fc)
	}
	fc := FaultKnobs{Seed: 9, MTBFHours: 12, ForecastErrHours: 0.5}.Config(100, false)
	if fc == nil || fc.Seed != 9 || fc.ForecastErrSD != sim.Hour/2 {
		t.Fatalf("config = %+v", fc)
	}
	nf, ok := fc.Nodes[MiraPartition]
	if !ok || len(fc.Nodes) != 1 || nf.MTBF != 12*sim.Hour || nf.NodesPerFailure != 1 {
		t.Errorf("without a ZC partition, failures = %+v; want 1 node per 12 h on mira", fc.Nodes)
	}
	fc = FaultKnobs{MTBFHours: 12}.Config(4096, true)
	if nf := fc.Nodes[ZCPartition]; nf.NodesPerFailure != 64 {
		t.Errorf("with a ZC partition, failures = %+v; want 64 nodes on zc", fc.Nodes)
	}
}

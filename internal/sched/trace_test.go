package sched

import (
	"testing"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
)

// traceRun runs jobs with a Mem tracer and registry attached.
func traceRun(t *testing.T, m *cluster.Machine, jobs []*job.Job, oracle bool) (*obs.Mem, *obs.Registry, Result) {
	t.Helper()
	mem := &obs.Mem{}
	reg := obs.NewRegistry()
	s := mustNew(t, Config{Machine: m, Oracle: oracle, Tracer: mem, Metrics: reg})
	for _, j := range jobs {
		s.Submit(j)
	}
	return mem, reg, mustRun(t, s, 1e6)
}

func kinds(evs []obs.Event) []obs.EventKind {
	out := make([]obs.EventKind, len(evs))
	for i, e := range evs {
		out[i] = e.Kind
	}
	return out
}

func TestTraceJobLifecycle(t *testing.T) {
	j := mkJob(1, 10, 100, 4)
	mem, reg, res := traceRun(t, singleMachine(8), []*job.Job{j}, true)
	want := []obs.EventKind{obs.EvArrive, obs.EvEnqueue, obs.EvStart, obs.EvFinish}
	got := kinds(mem.ForJob(1))
	if len(got) != len(want) {
		t.Fatalf("job events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job events = %v, want %v", got, want)
		}
	}
	start := mem.Filter(obs.EvStart)[0]
	if start.Time != 10 || start.Partition != "mira" || start.Nodes != 4 || start.Detail != 0 {
		t.Errorf("start event = %+v", start)
	}
	fin := mem.Filter(obs.EvFinish)[0]
	if fin.Time != 110 || fin.Detail != 0 {
		t.Errorf("finish event = %+v", fin)
	}
	if res.Started != 1 || res.Backfilled != 0 || res.PeakQueueLen != 1 {
		t.Errorf("result telemetry = %+v", res)
	}
	snap := reg.Snapshot()
	if snap.Counter("sched.jobs_started") != 1 || snap.Counter("sched.jobs_completed") != 1 {
		t.Errorf("registry counters = %+v", snap.Counters)
	}
	if snap.Counter("sim.events_dispatched") == 0 {
		t.Error("sim.events_dispatched not published")
	}
	if snap.Gauge("sim.max_queue_len") <= 0 {
		t.Error("sim.max_queue_len not published")
	}
}

func TestTraceBackfillAndReservation(t *testing.T) {
	// A fills 6/8 nodes; wide B blocks and gets a reservation; C backfills.
	a := mkJob(1, 0, 100, 6)
	b := mkJob(2, 1, 100, 8)
	c := mkJob(3, 2, 50, 2)
	mem, _, res := traceRun(t, singleMachine(8), []*job.Job{a, b, c}, true)
	if res.Backfilled != 1 {
		t.Fatalf("backfilled = %d, want 1", res.Backfilled)
	}
	bf := mem.Filter(obs.EvBackfillStart)
	if len(bf) != 1 || bf[0].Job != 3 {
		t.Fatalf("backfill events = %+v", bf)
	}
	resv := mem.Filter(obs.EvReserve)
	if len(resv) == 0 || resv[0].Job != 2 {
		t.Fatalf("reserve events = %+v", resv)
	}
	if resv[0].Detail != 100 {
		t.Errorf("reserved start = %v, want 100", resv[0].Detail)
	}
	clear := mem.Filter(obs.EvReserveClear)
	if len(clear) != 1 || clear[0].Job != 2 || clear[0].Time != 100 {
		t.Fatalf("reserve-clear events = %+v", clear)
	}
}

func TestTraceKillRequeueAndWindows(t *testing.T) {
	// Intermittent partition up [0, 100); job needs 150s: killed at 100,
	// requeued, restarted at the next window.
	zc := availability.NewIntervalTrace([]availability.Window{
		{Start: 0, End: 100}, {Start: 200, End: 1000},
	})
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, zc))
	j := mkJob(1, 0, 150, 4)
	mem, reg, res := traceRun(t, m, []*job.Job{j}, false)
	if res.Killed != 1 || res.Requeued != 1 {
		t.Fatalf("killed/requeued = %d/%d, want 1/1", res.Killed, res.Requeued)
	}
	kills := mem.Filter(obs.EvKill)
	if len(kills) != 1 || kills[0].Time != 100 || kills[0].Job != 1 || kills[0].Detail != 100 {
		t.Fatalf("kill events = %+v", kills)
	}
	rq := mem.Filter(obs.EvRequeue)
	if len(rq) != 1 || rq[0].Detail != 1 {
		t.Fatalf("requeue events = %+v", rq)
	}
	ups := mem.Filter(obs.EvWindowUp)
	downs := mem.Filter(obs.EvWindowDown)
	if len(ups) != 2 || len(downs) != 2 {
		t.Fatalf("window events = %d up, %d down; want 2 each", len(ups), len(downs))
	}
	if downs[0].Partition != "zc" || downs[0].Nodes != 8 {
		t.Errorf("window-down = %+v", downs[0])
	}
	if got := reg.Snapshot().Counter("sched.jobs_killed"); got != 1 {
		t.Errorf("sched.jobs_killed = %d", got)
	}
	// The job restarted at 200 and must have finished.
	if res.Completed != 1 || j.End != 350 {
		t.Errorf("completed=%d end=%v", res.Completed, j.End)
	}
}

func TestTracePinnedJob(t *testing.T) {
	// Oracle mode: a 200s request can never fit zc's 100s windows → pinned
	// to the always-on partition.
	zc := availability.NewPeriodic(float64(100/sim.Day), 0) // 100s per day
	m := cluster.NewMachine(
		cluster.NewPartition("mira", 8, availability.AlwaysOn{}),
		cluster.NewPartition("zc", 8, zc),
	)
	j := mkJob(1, 0, 200, 4)
	mem, _, res := traceRun(t, m, []*job.Job{j}, true)
	if res.Pinned != 1 {
		t.Fatalf("pinned = %d, want 1", res.Pinned)
	}
	pins := mem.Filter(obs.EvPin)
	if len(pins) != 1 || pins[0].Job != 1 {
		t.Fatalf("pin events = %+v", pins)
	}
	if j.Partition != "mira" {
		t.Errorf("pinned job ran on %q", j.Partition)
	}
}

func TestTraceUnrunnable(t *testing.T) {
	j := mkJob(1, 0, 100, 16) // wider than the 8-node machine
	mem, _, res := traceRun(t, singleMachine(8), []*job.Job{j}, true)
	if res.Unrunnable != 1 {
		t.Fatalf("unrunnable = %d", res.Unrunnable)
	}
	if got := mem.Filter(obs.EvUnrunnable); len(got) != 1 || got[0].Job != 1 {
		t.Fatalf("unrunnable events = %+v", got)
	}
}

// TestUntracedRunUnchanged guards that attaching telemetry does not alter
// scheduling outcomes: the same workload with and without a tracer must
// produce identical job outcomes.
func TestUntracedRunUnchanged(t *testing.T) {
	mk := func() []*job.Job {
		return []*job.Job{
			mkJob(1, 0, 100, 6), mkJob(2, 1, 100, 8), mkJob(3, 2, 50, 2),
			mkJob(4, 3, 500, 4), mkJob(5, 4, 20, 1),
		}
	}
	zc := availability.NewPeriodic(0.5, 0)
	machine := func() *cluster.Machine {
		return cluster.NewMachine(
			cluster.NewPartition("mira", 8, availability.AlwaysOn{}),
			cluster.NewPartition("zc", 8, zc),
		)
	}
	plain := mk()
	runJobs(t, machine(), plain, false, 1e6)
	traced := mk()
	traceRun(t, machine(), traced, false)
	for i := range plain {
		if plain[i].Start != traced[i].Start || plain[i].End != traced[i].End ||
			plain[i].Partition != traced[i].Partition || plain[i].Requeues != traced[i].Requeues {
			t.Errorf("job %d diverged: plain %+v vs traced %+v", plain[i].ID, *plain[i], *traced[i])
		}
	}
}

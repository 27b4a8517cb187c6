package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/job"
	"zccloud/internal/sim"
)

func mkJob(id int, submit, runtime sim.Time, nodes int) *job.Job {
	return &job.Job{ID: id, Submit: submit, Runtime: runtime, Request: runtime, Nodes: nodes}
}

func singleMachine(nodes int) *cluster.Machine {
	return cluster.NewMachine(cluster.NewPartition("mira", nodes, nil))
}

func runJobs(t *testing.T, m *cluster.Machine, jobs []*job.Job, oracle bool, deadline sim.Time) Result {
	if t != nil {
		t.Helper()
	}
	s, err := New(Config{Machine: m, Oracle: oracle})
	if err != nil {
		panic(err)
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			panic(err)
		}
	}
	res, err := s.Run(deadline)
	if err != nil {
		panic(err)
	}
	return res
}

// mustNew builds a scheduler, failing the test on config errors.
func mustNew(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustRun drives a run to completion, failing the test on scheduler errors.
func mustRun(t *testing.T, s *Scheduler, deadline sim.Time) Result {
	t.Helper()
	res, err := s.Run(deadline)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleJobImmediateStart(t *testing.T) {
	j := mkJob(1, 10, 100, 4)
	res := runJobs(t, singleMachine(8), []*job.Job{j}, true, 1e6)
	if res.Completed != 1 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if j.Wait() != 0 {
		t.Errorf("wait = %v, want 0", j.Wait())
	}
	if j.End != 110 || j.Partition != "mira" {
		t.Errorf("end=%v partition=%q", j.End, j.Partition)
	}
	if res.Makespan != 110 {
		t.Errorf("makespan = %v", res.Makespan)
	}
	if got := res.NodeHoursByPartition["mira"]; got != 4*100.0/3600 {
		t.Errorf("node-hours = %v", got)
	}
}

func TestFCFSOrdering(t *testing.T) {
	// Both jobs need the whole machine; the second must wait for the first.
	a := mkJob(1, 0, 100, 8)
	b := mkJob(2, 1, 100, 8)
	res := runJobs(t, singleMachine(8), []*job.Job{a, b}, true, 1e6)
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if a.Start != 0 || b.Start != 100 {
		t.Errorf("starts = %v, %v; want 0, 100", a.Start, b.Start)
	}
}

func TestParallelStart(t *testing.T) {
	a := mkJob(1, 0, 100, 4)
	b := mkJob(2, 0, 100, 4)
	runJobs(t, singleMachine(8), []*job.Job{a, b}, true, 1e6)
	if a.Start != 0 || b.Start != 0 {
		t.Errorf("both should start at 0: %v, %v", a.Start, b.Start)
	}
}

func TestEASYBackfill(t *testing.T) {
	// t=0: job A takes 6 of 8 nodes for 100s.
	// t=1: wide job B (8 nodes) blocked until 100 — gets reservation.
	// t=2: small job C (2 nodes, 50s) fits before the reservation: backfills.
	// t=2: small long job D (2 nodes, 200s) would delay B: must NOT backfill.
	a := mkJob(1, 0, 100, 6)
	b := mkJob(2, 1, 100, 8)
	c := mkJob(3, 2, 50, 2)
	d := mkJob(4, 2, 200, 2)
	res := runJobs(t, singleMachine(8), []*job.Job{a, b, c, d}, true, 1e6)
	if res.Completed != 4 {
		t.Fatalf("completed = %d", res.Completed)
	}
	t.Logf("starts: a=%v b=%v c=%v d=%v", a.Start, b.Start, c.Start, d.Start)
	if c.Start != 2 {
		t.Errorf("C should backfill at 2, started %v", c.Start)
	}
	if b.Start != 100 {
		t.Errorf("B reservation delayed: started %v, want 100", b.Start)
	}
	if d.Start < 100 {
		t.Errorf("D must not backfill (would delay B): started %v", d.Start)
	}
}

func TestBackfillSpareNodes(t *testing.T) {
	// A takes 6 of 8 nodes for 100s. B (blocked head) needs 4 nodes: its
	// reservation is at t=100. C needs 2 nodes for 1000s: even though it
	// outlasts the reservation, B leaves 8-4=4 spare at its start... but
	// only 2 are free now; C uses nodes B doesn't need, so it backfills.
	a := mkJob(1, 0, 100, 6)
	b := mkJob(2, 1, 100, 4)
	c := mkJob(3, 2, 1000, 2)
	runJobs(t, singleMachine(8), []*job.Job{a, b, c}, true, 1e6)
	if c.Start != 2 {
		t.Errorf("C should backfill on spare nodes at 2, started %v", c.Start)
	}
	if b.Start != 100 {
		t.Errorf("B should start at 100, started %v", b.Start)
	}
}

func TestOraclePinsLongJobs(t *testing.T) {
	// ZC partition up 10h/day; a 20h job can never fit there.
	zcAvail := availability.Periodic{Period: sim.Day, Uptime: 10 * sim.Hour}
	m := cluster.NewMachine(
		cluster.NewPartition("mira", 8, nil),
		cluster.NewPartition("zc", 64, zcAvail),
	)
	long := mkJob(1, 0, 20*sim.Hour, 16) // 16 nodes > mira's 8, fits only zc by size
	res := runJobs(t, m, []*job.Job{long}, true, sim.Time(30*float64(sim.Day)))
	if res.Unrunnable != 1 {
		t.Errorf("20h/16-node job fits neither partition; unrunnable = %d", res.Unrunnable)
	}

	long2 := mkJob(2, 0, 20*sim.Hour, 8) // fits mira by size and always-on
	res = runJobs(t, m, []*job.Job{long2}, true, sim.Time(30*float64(sim.Day)))
	if res.Completed != 1 || long2.Partition != "mira" {
		t.Errorf("long job should be pinned to mira, ran on %q", long2.Partition)
	}
}

func TestOracleNeverCrossesWindowEnd(t *testing.T) {
	// Jobs on the intermittent partition must finish by window end.
	zcAvail := availability.Periodic{Period: 1000, Uptime: 300}
	m := cluster.NewMachine(
		cluster.NewPartition("mira", 4, nil),
		cluster.NewPartition("zc", 8, zcAvail),
	)
	var jobs []*job.Job
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		jobs = append(jobs, mkJob(i+1, sim.Time(r.Intn(5000)), sim.Time(10+r.Intn(290)), 1+r.Intn(8)))
	}
	res := runJobs(t, m, jobs, true, 1e7)
	if res.Completed != 200 {
		t.Fatalf("completed = %d / 200 (unrunnable %d, unfinished %d)",
			res.Completed, res.Unrunnable, res.Unfinished)
	}
	for _, j := range jobs {
		if j.Partition != "zc" {
			continue
		}
		w, ok := zcAvail.WindowAt(j.Start)
		if !ok {
			t.Fatalf("job %d started on zc while down at %v", j.ID, j.Start)
		}
		if j.End > w.End {
			t.Fatalf("job %d ran past window end: end %v > %v", j.ID, j.End, w.End)
		}
	}
}

func TestKillRequeue(t *testing.T) {
	// Non-oracle: a job started near the window end gets killed and
	// requeued, eventually completing in a later window.
	zcAvail := availability.Periodic{Period: 1000, Uptime: 500}
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, zcAvail))
	j := mkJob(1, 300, 400, 8) // starts at 300, window ends 500 → killed
	res := runJobs(t, m, []*job.Job{j}, false, 1e6)
	if res.Completed != 1 {
		t.Fatalf("completed = %d (unfinished %d)", res.Completed, res.Unfinished)
	}
	if j.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1", j.Requeues)
	}
	if j.Start < 1000 {
		t.Errorf("final start = %v, want in a later window", j.Start)
	}
	if j.End != j.Start+400 {
		t.Errorf("end = %v, want start+400", j.End)
	}
}

func TestPredictiveAdmission(t *testing.T) {
	// Windows of 500 every 1000. Predictor assumes 300: a 400-long job
	// must not be admitted (would be killed under blind mode), so it
	// stays queued forever on a ZC-only machine.
	zcAvail := availability.Periodic{Period: 1000, Uptime: 500}
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, zcAvail))
	long := mkJob(1, 0, 400, 4)
	short := mkJob(2, 0, 200, 4)
	s := mustNew(t, Config{Machine: m, Oracle: false, PredictedWindow: 300})
	s.Submit(long)
	s.Submit(short)
	res := mustRun(t, s, 10000)
	if !short.Completed {
		t.Error("short job should complete under predictive admission")
	}
	if short.Requeues != 0 {
		t.Errorf("short job requeued %d times; fits the prediction", short.Requeues)
	}
	if long.Started {
		t.Error("long job must be rejected by the predictor (request > predicted window)")
	}
	if res.Unrunnable != 1 {
		t.Errorf("unrunnable = %d, want 1 (the long job)", res.Unrunnable)
	}
}

func TestPredictiveStillKilledOnShortWindow(t *testing.T) {
	// Prediction of 800 on 500-long windows: a 600-long job is admitted
	// at window start but killed at the real end, requeued, and (since
	// every window is 500) never finishes by the deadline.
	zcAvail := availability.Periodic{Period: 1000, Uptime: 500}
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, zcAvail))
	j := mkJob(1, 0, 600, 4)
	s := mustNew(t, Config{Machine: m, Oracle: false, PredictedWindow: 800})
	s.Submit(j)
	res := mustRun(t, s, 5000)
	if j.Completed {
		t.Error("job cannot complete in any window")
	}
	if j.Requeues == 0 {
		t.Error("job should have been killed at least once")
	}
	if res.Unfinished != 1 {
		t.Errorf("unfinished = %d, want 1", res.Unfinished)
	}
}

func TestPredictiveIgnoresAlwaysOn(t *testing.T) {
	// The predictor must not throttle the always-on partition.
	m := cluster.NewMachine(cluster.NewPartition("mira", 8, nil))
	j := mkJob(1, 0, 5000, 8)
	s := mustNew(t, Config{Machine: m, Oracle: false, PredictedWindow: 100})
	s.Submit(j)
	mustRun(t, s, 1e6)
	if !j.Completed {
		t.Error("always-on partition must accept jobs regardless of prediction")
	}
}

func TestCheckpointRestart(t *testing.T) {
	// Windows of 500 every 1000. A 900-long job can never fit one window;
	// without checkpointing it livelocks, with checkpoints every 100 it
	// carries progress across windows and finishes in the second window.
	zcAvail := availability.Periodic{Period: 1000, Uptime: 500}
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, zcAvail))
	j := mkJob(1, 0, 900, 4)
	s := mustNew(t, Config{
		Machine:            m,
		Oracle:             false,
		CheckpointInterval: 100,
	})
	s.Submit(j)
	res := mustRun(t, s, 20000)
	if res.Completed != 1 {
		t.Fatalf("completed = %d (requeues %d, progress %v)", res.Completed, j.Requeues, j.Progress)
	}
	if j.Requeues != 1 {
		t.Errorf("requeues = %d, want 1", j.Requeues)
	}
	// first window: 500 of work, checkpointed to 500. second window:
	// starts at 1000 with 400 remaining → ends 1400.
	if j.End != 1400 {
		t.Errorf("end = %v, want 1400", j.End)
	}
}

func TestCheckpointOverheadStretch(t *testing.T) {
	// Overhead 10 per 100 of work stretches a 200-long job to 220 wall.
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, availability.Periodic{Period: 1000, Uptime: 900}))
	j := mkJob(1, 0, 200, 4)
	s := mustNew(t, Config{
		Machine:            m,
		Oracle:             false,
		CheckpointInterval: 100,
		CheckpointOverhead: 10,
	})
	s.Submit(j)
	mustRun(t, s, 10000)
	if !j.Completed {
		t.Fatal("job did not complete")
	}
	if j.End < 220-1e-9 || j.End > 220+1e-9 {
		t.Errorf("end = %v, want 220 (10%% checkpoint stretch)", j.End)
	}
}

func TestCheckpointProgressBounded(t *testing.T) {
	// Progress must never exceed Runtime across many kill cycles.
	zcAvail := availability.Periodic{Period: 300, Uptime: 170}
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, zcAvail))
	r := rand.New(rand.NewSource(4))
	var jobs []*job.Job
	for i := 0; i < 60; i++ {
		jobs = append(jobs, mkJob(i+1, sim.Time(r.Intn(2000)), sim.Time(50+r.Intn(400)), 1+r.Intn(8)))
	}
	s := mustNew(t, Config{Machine: m, Oracle: false, CheckpointInterval: 25})
	for _, j := range jobs {
		s.Submit(j)
	}
	res := mustRun(t, s, 1e6)
	for _, j := range jobs {
		if j.Progress > j.Runtime {
			t.Fatalf("job %d progress %v > runtime %v", j.ID, j.Progress, j.Runtime)
		}
		if j.Completed && j.End > 1e6 {
			t.Fatalf("job %d completed past deadline", j.ID)
		}
	}
	if res.Completed == 0 {
		t.Error("nothing completed")
	}
}

func TestDeadlineUnfinished(t *testing.T) {
	jobs := []*job.Job{mkJob(1, 0, 100, 8), mkJob(2, 0, 100, 8), mkJob(3, 0, 100, 8)}
	res := runJobs(t, singleMachine(8), jobs, true, 150)
	if res.Completed != 1 {
		t.Errorf("completed = %d, want 1", res.Completed)
	}
	if res.Unfinished != 2 {
		t.Errorf("unfinished = %d, want 2", res.Unfinished)
	}
}

func TestUnrunnable(t *testing.T) {
	res := runJobs(t, singleMachine(8), []*job.Job{mkJob(1, 0, 10, 16)}, true, 1e6)
	if res.Unrunnable != 1 || res.Completed != 0 {
		t.Errorf("unrunnable = %d completed = %d", res.Unrunnable, res.Completed)
	}
}

func TestLoadBalancingAcrossPartitions(t *testing.T) {
	m := cluster.NewMachine(
		cluster.NewPartition("a", 64, nil),
		cluster.NewPartition("b", 64, nil),
	)
	var jobs []*job.Job
	for i := 0; i < 100; i++ {
		jobs = append(jobs, mkJob(i+1, sim.Time(i), 1000, 8))
	}
	res := runJobs(t, m, jobs, true, 1e7)
	if res.Completed != 100 {
		t.Fatalf("completed = %d", res.Completed)
	}
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.Partition]++
	}
	if counts["a"] < 35 || counts["b"] < 35 {
		t.Errorf("unbalanced dispatch: %v", counts)
	}
}

func TestClassification(t *testing.T) {
	zcAvail := availability.Periodic{Period: 1000, Uptime: 500}
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, zcAvail))
	s := mustNew(t, Config{Machine: m, Oracle: true, Classify: zcAvail})
	onTime := mkJob(1, 100, 300, 1) // up at 100, 100+300 <= 500
	late1 := mkJob(2, 300, 300, 1)  // up at 300 but 300+300 > 500
	late2 := mkJob(3, 600, 100, 1)  // down at 600
	for _, j := range []*job.Job{onTime, late1, late2} {
		s.Submit(j)
	}
	mustRun(t, s, 1e6)
	if onTime.Timeliness != job.OnTime {
		t.Errorf("job 1 = %v, want on-time", onTime.Timeliness)
	}
	if late1.Timeliness != job.Late || late2.Timeliness != job.Late {
		t.Errorf("jobs 2,3 = %v,%v want late", late1.Timeliness, late2.Timeliness)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []sim.Time {
		r := rand.New(rand.NewSource(9))
		m := cluster.NewMachine(
			cluster.NewPartition("mira", 32, nil),
			cluster.NewPartition("zc", 32, availability.Periodic{Period: 2000, Uptime: 1000}),
		)
		var jobs []*job.Job
		for i := 0; i < 300; i++ {
			jobs = append(jobs, mkJob(i+1, sim.Time(r.Intn(10000)), sim.Time(1+r.Intn(900)), 1+r.Intn(32)))
		}
		s := mustNew(t, Config{Machine: m, Oracle: true})
		for _, j := range jobs {
			s.Submit(j)
		}
		mustRun(t, s, 1e8)
		starts := make([]sim.Time, len(jobs))
		for i, j := range jobs {
			starts[i] = j.Start
		}
		return starts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic start for job %d: %v vs %v", i+1, a[i], b[i])
		}
	}
}

// Property: random workloads complete with no wait-time anomalies, jobs
// never overlap downtime (oracle), and node usage never exceeds capacity.
func TestSchedulerSafetyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		zcAvail := availability.Periodic{
			Period: sim.Time(500 + r.Intn(1500)),
			Uptime: sim.Time(200 + r.Intn(300)),
		}
		mira := cluster.NewPartition("mira", 16, nil)
		zc := cluster.NewPartition("zc", 16, zcAvail)
		m := cluster.NewMachine(mira, zc)
		var jobs []*job.Job
		for i := 0; i < 150; i++ {
			rt := sim.Time(1 + r.Intn(int(zcAvail.Uptime)))
			j := mkJob(i+1, sim.Time(r.Intn(8000)), rt, 1+r.Intn(16))
			j.Request = rt * sim.Time(1+r.Float64())
			jobs = append(jobs, j)
		}
		res := runJobs(nil, m, jobs, true, 1e8)
		if res.Completed+res.Unrunnable != len(jobs) {
			return false
		}
		// wait times non-negative; zc jobs inside windows
		usage := map[string][]evt{}
		for _, j := range jobs {
			if !j.Completed {
				continue
			}
			if j.Start < j.Submit {
				return false
			}
			if j.Partition == "zc" {
				w, ok := zcAvail.WindowAt(j.Start)
				if !ok || j.End > w.End {
					return false
				}
			}
			usage[j.Partition] = append(usage[j.Partition],
				evt{j.Start, j.Nodes}, evt{j.End, -j.Nodes})
		}
		for part, evs := range usage {
			capacity := m.Partition(part).Nodes
			// sweep: ends (negative deltas) apply before starts at a tie
			sortEvs(evs)
			inUse := 0
			for _, e := range evs {
				inUse += e.delta
				if inUse > capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

type evt = struct {
	at    sim.Time
	delta int
}

func sortEvs(evs []evt) {
	// insertion sort is fine for test sizes; order: time asc, releases first
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0; j-- {
			a, b := evs[j-1], evs[j]
			if b.at < a.at || (b.at == a.at && b.delta < a.delta) {
				evs[j-1], evs[j] = b, a
			} else {
				break
			}
		}
	}
}

func TestBackfillDepthLimit(t *testing.T) {
	// With depth 1, only the first queued job after the head is considered.
	a := mkJob(1, 0, 100, 8)
	b := mkJob(2, 1, 100, 8) // head, reserved at 100
	c := mkJob(3, 2, 200, 1) // depth-1 candidate; would delay B → skipped
	d := mkJob(4, 3, 50, 1)  // would backfill, but beyond depth
	s := mustNew(t, Config{Machine: singleMachine(8), Oracle: true, BackfillDepth: 1})
	for _, j := range []*job.Job{a, b, c, d} {
		s.Submit(j)
	}
	mustRun(t, s, 1e6)
	if d.Start < 100 {
		t.Errorf("depth-limited backfill still started d at %v", d.Start)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New(Config{}) should report the missing machine")
	}
}

func TestSubmitRejectsInvalidJob(t *testing.T) {
	s := mustNew(t, Config{Machine: singleMachine(8), Oracle: true})
	if err := s.Submit(&job.Job{ID: 1, Nodes: 0, Runtime: 10, Request: 10}); err == nil {
		t.Error("Submit should reject a zero-node job")
	}
	if s.QueueLen() != 0 {
		t.Error("rejected job must not count")
	}
}

func TestQueueAccessors(t *testing.T) {
	s := mustNew(t, Config{Machine: singleMachine(8), Oracle: true})
	if s.QueueLen() != 0 || s.RunningCount() != 0 {
		t.Error("fresh scheduler should be empty")
	}
}

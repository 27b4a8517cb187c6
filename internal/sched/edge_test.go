package sched

import (
	"bytes"
	"testing"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/faults"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
)

// TestJobEndingAtExactWindowEnd pins the tie-break at the window-end
// tick: a job whose last second of work coincides with the window end
// completes (job release runs before the withdraw kill at the same
// instant) rather than being killed and re-run.
func TestJobEndingAtExactWindowEnd(t *testing.T) {
	zcAvail := availability.Periodic{Period: 1000, Uptime: 500}
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, zcAvail))
	j := mkJob(1, 0, 500, 4) // ends exactly at the 500 window end
	res := runJobs(t, m, []*job.Job{j}, false, 1e6)
	if !j.Completed || j.End != 500 {
		t.Fatalf("completed=%v end=%v, want completion at exactly 500", j.Completed, j.End)
	}
	if j.Requeues != 0 || res.Killed != 0 {
		t.Errorf("requeues=%d killed=%d; the window-end kill must lose to the job end",
			j.Requeues, res.Killed)
	}
}

// TestCheckpointStretchAcrossSecondWindow: checkpoint overhead stretches
// a job so far that it is killed at two consecutive window ends before
// finishing in the third, with progress accumulating each time.
func TestCheckpointStretchAcrossSecondWindow(t *testing.T) {
	// Stretch 1.25 (25 overhead per 100 of work). Each 500-long window
	// completes 400 of work; a 1000-long job therefore needs two kills:
	// [0,500) → progress 400, [1000,1500) → progress 800, then the last
	// 200 of work takes 250 wall in the third window: end 2250.
	zcAvail := availability.Periodic{Period: 1000, Uptime: 500}
	m := cluster.NewMachine(cluster.NewPartition("zc", 8, zcAvail))
	j := mkJob(1, 0, 1000, 4)
	s := mustNew(t, Config{
		Machine:            m,
		Oracle:             false,
		CheckpointInterval: 100,
		CheckpointOverhead: 25,
	})
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, s, 1e5)
	if res.Completed != 1 {
		t.Fatalf("completed = %d (requeues %d, progress %v)", res.Completed, j.Requeues, j.Progress)
	}
	if j.Requeues != 2 {
		t.Errorf("requeues = %d, want 2 (killed at both window ends)", j.Requeues)
	}
	if j.End < 2250-1e-6 || j.End > 2250+1e-6 {
		t.Errorf("end = %v, want 2250", j.End)
	}
}

// TestZeroLengthWindows: empty availability windows must neither crash
// the scheduler nor admit work, with and without fault perturbation.
func TestZeroLengthWindows(t *testing.T) {
	ws := []availability.Window{
		{Start: 100, End: 100}, // zero-length
		{Start: 200, End: 700},
		{Start: 800, End: 800}, // zero-length
		{Start: 1200, End: 1700},
	}
	for _, faulted := range []bool{false, true} {
		zcAvail := availability.NewIntervalTrace(ws)
		m := cluster.NewMachine(cluster.NewPartition("zc", 8, zcAvail))
		j := mkJob(1, 0, 400, 4)
		cfg := Config{Machine: m, Oracle: false}
		if faulted {
			inj, err := faults.New(faults.Config{Seed: 9, ForecastErrSD: 10})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = inj
		}
		s := mustNew(t, cfg)
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, s, 1e5)
		if res.Completed+res.Unfinished != 1 {
			t.Fatalf("faulted=%v: completed=%d unfinished=%d", faulted, res.Completed, res.Unfinished)
		}
		if !faulted {
			// Without perturbation the job must land in the first real
			// window: the zero-length ones provide no capacity.
			if !j.Completed || j.Start != 200 || j.End != 600 {
				t.Errorf("start=%v end=%v completed=%v, want the [200,700) window",
					j.Start, j.End, j.Completed)
			}
		}
	}
}

// faultedTrace runs a faulted simulation with a JSONL tracer attached
// and returns the serialized event stream.
func faultedTrace(t *testing.T, seed int64) []byte {
	t.Helper()
	zcAvail := availability.Periodic{Period: 1000, Uptime: 600}
	m := cluster.NewMachine(
		cluster.NewPartition("mira", 16, nil),
		cluster.NewPartition("zc", 16, zcAvail),
	)
	inj, err := faults.New(faults.Config{
		Seed: seed,
		Nodes: map[string]faults.NodeFailures{
			"zc":   {MTBF: 2000, MeanRepair: 300, NodesPerFailure: 4},
			"mira": {MTBF: 5000, MeanRepair: 300, NodesPerFailure: 2},
		},
		ForecastErrSD: 60,
		BrownoutProb:  0.4,
		RetryLimit:    3,
		Backoff:       50,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	s := mustNew(t, Config{
		Machine:            m,
		Oracle:             false,
		CheckpointInterval: 100,
		Faults:             inj,
		Tracer:             tr,
	})
	for i := 0; i < 40; i++ {
		j := mkJob(i+1, sim.Time(i*137%3000), sim.Time(100+(i*271)%700), 1+i%16)
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s, 1e6)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInactiveFaultsMatchSeedBehavior: an injector whose dimensions are
// all zero must reproduce the fault-free simulator exactly — same event
// trace, byte for byte.
func TestInactiveFaultsMatchSeedBehavior(t *testing.T) {
	run := func(inj *faults.Injector) []byte {
		zcAvail := availability.Periodic{Period: 1000, Uptime: 600}
		m := cluster.NewMachine(
			cluster.NewPartition("mira", 16, nil),
			cluster.NewPartition("zc", 16, zcAvail),
		)
		var buf bytes.Buffer
		tr := obs.NewJSONL(&buf)
		s := mustNew(t, Config{Machine: m, Oracle: false,
			Faults: inj, Tracer: tr})
		for i := 0; i < 40; i++ {
			j := mkJob(i+1, sim.Time(i*137%3000), sim.Time(100+(i*271)%700), 1+i%16)
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		mustRun(t, s, 1e6)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	inactive, err := faults.New(faults.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, b := run(nil), run(inactive)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("inactive fault injector changed the event trace")
	}
}

// TestFaultedTraceDeterminism: two runs with the same fault seed emit
// byte-identical event traces (run under -race in CI to catch ordering
// that leans on map iteration or scheduling nondeterminism).
func TestFaultedTraceDeterminism(t *testing.T) {
	a := faultedTrace(t, 123)
	b := faultedTrace(t, 123)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed faulted runs produced different event traces")
	}
	if c := faultedTrace(t, 124); bytes.Equal(a, c) {
		t.Error("different fault seeds produced identical traces (injector ignored?)")
	}
}

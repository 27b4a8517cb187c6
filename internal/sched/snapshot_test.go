package sched

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/faults"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
	"zccloud/internal/tracebin"
)

// snapWorld builds one deterministic scheduling scenario: a two-partition
// machine, 40 jobs, and (optionally) an active fault injector. Each call
// constructs fresh state so snapshot tests can build the same world on
// both sides of a restore.
func snapWorld(t *testing.T, faulted bool, tr obs.Tracer) Config {
	t.Helper()
	zcAvail := availability.Periodic{Period: 1000, Uptime: 600}
	m := cluster.NewMachine(
		cluster.NewPartition("mira", 16, nil),
		cluster.NewPartition("zc", 16, zcAvail),
	)
	cfg := Config{Machine: m, Oracle: false, CheckpointInterval: 100, Tracer: tr}
	if faulted {
		inj, err := faults.New(faults.Config{
			Seed: 77,
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
		cfg.Faults = inj
	}
	return cfg
}

// snapTrace is the scenario's 40 jobs, fresh on every call.
func snapTrace() *job.Trace {
	tr := &job.Trace{}
	for i := 0; i < 40; i++ {
		tr.Jobs = append(tr.Jobs, mkJob(i+1, sim.Time(i*137%3000), sim.Time(100+(i*271)%700), 1+i%16))
	}
	return tr
}

func snapJobs(s *Scheduler, t *testing.T) {
	t.Helper()
	if err := s.LoadTrace(snapTrace()); err != nil {
		t.Fatal(err)
	}
}

// unrunTrace returns fresh copies of the jobs submitted to s, in arrival
// order: the trace a caller rebuilds to resume s from a snapshot.
func unrunTrace(s *Scheduler) *job.Trace {
	tr := &job.Trace{}
	for _, j := range s.arrivals {
		cp := *j
		cp.Reset()
		tr.Jobs = append(tr.Jobs, &cp)
	}
	return tr
}

// stripCheckpointMarkers removes checkpoint-save/restore records from a
// JSONL trace: they mark where the run was paused, not what the
// simulated world did, and are the one permitted difference between an
// interrupted-and-resumed trace and an uninterrupted one.
func stripCheckpointMarkers(b []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(b, []byte("\n")) {
		if bytes.Contains(line, []byte(`"ev":"checkpoint-`)) {
			continue
		}
		if len(line) == 0 {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// roundTrip interrupts a run at each StopAt boundary in turn, snapshots,
// serializes the snapshot through JSON, rebuilds the whole world from
// scratch, restores, and continues. Returns the final Result and the
// concatenated trace (markers stripped).
func roundTrip(t *testing.T, faulted bool, deadline sim.Time, stops []sim.Time) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tr := tracebin.NewJSONL(&buf)
	cfg := snapWorld(t, faulted, tr)
	s := mustNew(t, cfg)
	snapJobs(s, t)
	for _, stop := range stops {
		s.cfg.StopAt = stop
		if _, err := s.Run(deadline); err != ErrInterrupted {
			t.Fatalf("Run with StopAt=%v: err = %v, want ErrInterrupted", stop, err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Serialize and reparse: the restored run must work from what a
		// file on disk would hold, not from shared in-memory pointers.
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var parsed Snapshot
		if err := json.Unmarshal(blob, &parsed); err != nil {
			t.Fatal(err)
		}
		cfg = snapWorld(t, faulted, tr)
		s, err = Restore(cfg, snapTrace(), &parsed)
		if err != nil {
			t.Fatal(err)
		}
	}
	s.cfg.StopAt = 0
	res, err := s.Run(deadline)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, stripCheckpointMarkers(buf.Bytes())
}

// uninterrupted runs the same world start to finish.
func uninterrupted(t *testing.T, faulted bool, deadline sim.Time) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tr := tracebin.NewJSONL(&buf)
	s := mustNew(t, snapWorld(t, faulted, tr))
	snapJobs(s, t)
	res := mustRun(t, s, deadline)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, stripCheckpointMarkers(buf.Bytes())
}

// TestSnapshotRoundTrip pins the tentpole guarantee: interrupt →
// snapshot → restore → continue is byte-identical (trace and Result) to
// never having been interrupted, with and without active faults, across
// single and chained restore points.
func TestSnapshotRoundTrip(t *testing.T) {
	const deadline = 1e6
	cases := []struct {
		name    string
		faulted bool
		stops   []sim.Time
	}{
		{"clean-single", false, []sim.Time{900}},
		{"clean-chained", false, []sim.Time{500, 1700, 2600}},
		{"faulted-single", true, []sim.Time{900}},
		{"faulted-chained", true, []sim.Time{500, 1700, 2600}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRes, wantTrace := uninterrupted(t, tc.faulted, deadline)
			gotRes, gotTrace := roundTrip(t, tc.faulted, deadline, tc.stops)
			if len(wantTrace) == 0 {
				t.Fatal("empty reference trace")
			}
			if !bytes.Equal(wantTrace, gotTrace) {
				t.Fatalf("resumed trace diverges from uninterrupted run:\nwant %d bytes, got %d",
					len(wantTrace), len(gotTrace))
			}
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Fatalf("Result diverged:\nwant %+v\ngot  %+v", wantRes, gotRes)
			}
		})
	}
}

// TestSnapshotEmitsMarkers: the pause/resume boundary is visible in the
// trace as checkpoint-save / checkpoint-restore events.
func TestSnapshotEmitsMarkers(t *testing.T) {
	tr := &obs.Mem{}
	s := mustNew(t, snapWorld(t, false, tr))
	snapJobs(s, t)
	s.cfg.StopAt = 900
	if _, err := s.Run(1e6); err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Filter(obs.EvCheckpointSave)) != 1 {
		t.Error("no checkpoint-save event traced")
	}
	if _, err := Restore(snapWorld(t, false, tr), snapTrace(), snap); err != nil {
		t.Fatal(err)
	}
	if len(tr.Filter(obs.EvCheckpointRestore)) != 1 {
		t.Error("no checkpoint-restore event traced")
	}
}

// TestRestoreRejectsVersionSkew: a snapshot from another format version
// must be refused, not misparsed.
func TestRestoreRejectsVersionSkew(t *testing.T) {
	s := mustNew(t, snapWorld(t, false, nil))
	snapJobs(s, t)
	s.cfg.StopAt = 900
	if _, err := s.Run(1e6); err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = SnapshotVersion + 1
	if _, err := Restore(snapWorld(t, false, nil), snapTrace(), snap); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("restore of version-skewed snapshot: err = %v, want version error", err)
	}
}

// TestRestoreRejectsConfigMismatch: resuming under a different run
// configuration (here: oracle mode flipped) must fail the fingerprint
// check instead of silently mixing two different experiments.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	s := mustNew(t, snapWorld(t, false, nil))
	snapJobs(s, t)
	s.cfg.StopAt = 900
	if _, err := s.Run(1e6); err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := snapWorld(t, false, nil)
	other.Oracle = true
	if _, err := Restore(other, snapTrace(), snap); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("restore under flipped config: err = %v, want fingerprint error", err)
	}
}

// TestRestoreRejectsDifferentTrace: the trace is part of the
// fingerprint, so resuming over a trace with one job's runtime changed,
// or one job dropped, is refused instead of mixing two workloads. Both
// edits touch jobs that had not arrived when the snapshot was taken.
func TestRestoreRejectsDifferentTrace(t *testing.T) {
	s := mustNew(t, snapWorld(t, false, nil))
	snapJobs(s, t)
	s.cfg.StopAt = 900
	if _, err := s.Run(1e6); err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	changed := snapTrace()
	last := changed.Jobs[len(changed.Jobs)-1]
	if last.Submit <= s.cfg.StopAt {
		t.Fatalf("job %d arrived before the snapshot; the edit would not test the unarrived trace", last.ID)
	}
	last.Runtime--
	dropped := snapTrace()
	dropped.Jobs = dropped.Jobs[:len(dropped.Jobs)-1]
	for name, tr := range map[string]*job.Trace{"runtime changed": changed, "job dropped": dropped} {
		if _, err := Restore(snapWorld(t, false, nil), tr, snap); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("restore with %s: err = %v, want fingerprint error", name, err)
		}
	}
	if _, err := Restore(snapWorld(t, false, nil), snapTrace(), snap); err != nil {
		t.Fatalf("restore over the same trace: %v", err)
	}
}

// TestSnapshotHoldsOnlyArrivedJobs: a snapshot at StopAt serializes the
// jobs that have arrived and one pending arrival, the next job's; the
// rest of the trace stays with the caller.
func TestSnapshotHoldsOnlyArrivedJobs(t *testing.T) {
	const stop = 900
	s := mustNew(t, snapWorld(t, false, nil))
	tr := snapTrace()
	if err := s.LoadTrace(tr); err != nil {
		t.Fatal(err)
	}
	s.cfg.StopAt = stop
	if _, err := s.Run(1e6); err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatal(err)
	}

	arrived := map[int]bool{}
	var next *job.Job // the first job yet to arrive
	for _, j := range tr.Jobs {
		if j.Submit <= stop {
			arrived[j.ID] = true
		} else if next == nil || j.Submit < next.Submit {
			next = j
		}
	}
	if len(arrived) == 0 || next == nil {
		t.Fatalf("%d of %d jobs arrived by %v; the stop does not split the trace", len(arrived), len(tr.Jobs), stop)
	}
	if len(parsed.Jobs) != len(arrived) {
		t.Errorf("snapshot holds %d jobs, %d have arrived", len(parsed.Jobs), len(arrived))
	}
	for _, j := range parsed.Jobs {
		if !arrived[j.ID] {
			t.Errorf("snapshot holds job %d, which arrives at %v", j.ID, j.Submit)
		}
	}
	var arrivals []pendingEvent
	for _, pe := range parsed.Pending {
		if pe.Kind == evArrival {
			arrivals = append(arrivals, pe)
		}
	}
	if len(arrivals) != 1 || arrivals[0].Job != next.ID {
		t.Errorf("pending arrivals = %+v, want one for job %d", arrivals, next.ID)
	}
}

// TestRestoreRejectsRewoundDeadline: a restored run must be driven to
// the deadline its availability events were materialized for.
func TestRestoreRejectsRewoundDeadline(t *testing.T) {
	s := mustNew(t, snapWorld(t, false, nil))
	snapJobs(s, t)
	s.cfg.StopAt = 900
	if _, err := s.Run(1e6); err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(snapWorld(t, false, nil), snapTrace(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(5e5); err == nil {
		t.Fatal("restored Run accepted a different deadline")
	}
}

// TestCheckCleanRun: the invariant checker stays silent across a full
// faulted run when nothing is corrupted.
func TestCheckCleanRun(t *testing.T) {
	cfg := snapWorld(t, true, nil)
	cfg.Check = true
	s := mustNew(t, cfg)
	snapJobs(s, t)
	mustRun(t, s, 1e6)
}

// TestInvariantCatchesCorruption corrupts scheduler state in targeted
// ways and asserts each is caught with a descriptive violation.
func TestInvariantCatchesCorruption(t *testing.T) {
	paused := func(t *testing.T) *Scheduler {
		t.Helper()
		s := mustNew(t, snapWorld(t, false, nil))
		snapJobs(s, t)
		s.cfg.StopAt = 900
		if _, err := s.Run(1e6); err != ErrInterrupted {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("paused scheduler already inconsistent: %v", err)
		}
		return s
	}
	cases := []struct {
		name    string
		corrupt func(s *Scheduler)
		want    string // invariant name
	}{
		{"lost-job", func(s *Scheduler) { s.acct.Done++ }, "conservation"},
		{"double-queue", func(s *Scheduler) { s.queue = append(s.queue, s.queue[0]) }, "exclusivity"},
		{"queue-disorder", func(s *Scheduler) {
			s.queue[0], s.queue[len(s.queue)-1] = s.queue[len(s.queue)-1], s.queue[0]
		}, "queue-order"},
		{"phantom-allocation", func(s *Scheduler) {
			if err := s.cfg.Machine.Partition("mira").Allocate(3); err != nil {
				panic(err)
			}
		}, "capacity"},
		{"clock-rewind", func(s *Scheduler) { s.acct.Checked = s.eng.Now() + 1000 }, "monotone-time"},
		{"release-disorder", func(s *Scheduler) {
			rels := busiestIndex(s)
			rels[0], rels[1] = rels[1], rels[0]
		}, "release-index"},
		{"release-stale", func(s *Scheduler) { busiestIndex(s)[1].at += 1 }, "release-index"},
		{"release-missing", func(s *Scheduler) {
			for p, rels := range s.releases {
				if len(rels) > 0 {
					s.releases[p] = rels[1:]
					return
				}
			}
		}, "release-index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := paused(t)
			tc.corrupt(s)
			err := s.CheckInvariants()
			var iv *InvariantViolation
			if err == nil {
				t.Fatal("corruption not caught")
			}
			var ok bool
			if iv, ok = err.(*InvariantViolation); !ok {
				t.Fatalf("err type %T, want *InvariantViolation", err)
			}
			if iv.Name != tc.want {
				t.Fatalf("violation %q (%s), want %q", iv.Name, iv.Detail, tc.want)
			}
			if iv.Detail == "" {
				t.Error("violation has no detail")
			}
			// A corrupted scheduler must also refuse to snapshot.
			if _, err := s.Snapshot(); err == nil {
				t.Error("Snapshot accepted corrupted state")
			}
		})
	}
}

// busiestIndex returns the longest partition release index of s, which
// must hold at least two entries for the index corruption cases to bite.
func busiestIndex(s *Scheduler) []release {
	var best []release
	for _, rels := range s.releases {
		if len(rels) > len(best) {
			best = rels
		}
	}
	if len(best) < 2 {
		panic("paused scheduler has no partition running two jobs")
	}
	return best
}

// TestCheckStopsRunOnCorruption: under Config.Check a mid-run corruption
// stops the run with the violation and traces invariant-violation.
func TestCheckStopsRunOnCorruption(t *testing.T) {
	tr := &obs.Mem{}
	reg := obs.NewRegistry()
	cfg := snapWorld(t, false, tr)
	cfg.Check = true
	cfg.Metrics = reg
	s := mustNew(t, cfg)
	snapJobs(s, t)
	s.cfg.StopAt = 900
	if _, err := s.Run(1e6); err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	s.acct.Done++ // corrupt: a job completion that never happened
	s.cfg.StopAt = 0
	_, err := s.Run(1e6)
	if _, ok := err.(*InvariantViolation); !ok {
		t.Fatalf("Run err = %v (%T), want *InvariantViolation", err, err)
	}
	if len(tr.Filter(obs.EvInvariantViolation)) == 0 {
		t.Error("no invariant-violation trace event")
	}
	if got := reg.Scope("sched").Counter("invariant_violations").Value(); got != 1 {
		t.Errorf("invariant_violations counter = %d, want 1", got)
	}
}

// TestInterruptCallback: the cooperative Interrupt hook pauses the run
// exactly like StopAt, leaving a snapshottable scheduler.
func TestInterruptCallback(t *testing.T) {
	cfg := snapWorld(t, false, nil)
	n := 0
	cfg.Interrupt = func() bool { n++; return n > 25 }
	s := mustNew(t, cfg)
	snapJobs(s, t)
	if _, err := s.Run(1e6); err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot after cooperative interrupt: %v", err)
	}
}

// TestPendingDescriptors: the paused engine lists every pending event as
// a live descriptor in dispatch order — what Snapshot persists.
func TestPendingDescriptors(t *testing.T) {
	s := mustNew(t, snapWorld(t, true, nil))
	snapJobs(s, t)
	s.cfg.StopAt = 900
	if _, err := s.Run(1e6); err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	pend := s.eng.PendingInOrder()
	if len(pend) == 0 {
		t.Fatal("no pending events at the pause point")
	}
	now := s.eng.Now()
	for i, pe := range pend {
		if pe.Kind == "" || pe.At < now {
			t.Fatalf("pending descriptor %d is not a live event: %+v (now %v)", i, pe, now)
		}
		if i > 0 && pe.At < pend[i-1].At {
			t.Fatalf("pending descriptors out of dispatch order at %d: %v after %v", i, pe.At, pend[i-1].At)
		}
	}
	if job0 := s.jobs[1]; job0 == nil {
		t.Fatal("job registry empty")
	}
}

// TestDuplicateSubmitRejected: the job registry refuses ID collisions,
// which would make snapshots ambiguous.
func TestDuplicateSubmitRejected(t *testing.T) {
	s := mustNew(t, snapWorld(t, false, nil))
	j := mkJob(1, 0, 100, 1)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(mkJob(1, 50, 100, 1)); err == nil {
		t.Fatal("duplicate job ID accepted")
	}
	var _ = j
}

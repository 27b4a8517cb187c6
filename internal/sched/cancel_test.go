package sched

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/faults"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
	"zccloud/internal/tracebin"
)

// cancelTracer forwards events to inner and cancels the context after
// the n-th traced event: a deterministic way to cancel mid-run from
// inside the simulation itself.
type cancelTracer struct {
	inner  obs.Tracer
	after  int
	seen   int
	cancel context.CancelFunc
	// stepsAtCancel records the scheduler's dispatch count at the moment
	// of cancellation so the test can bound how much later the run stopped.
	s             *Scheduler
	stepsAtCancel uint64
}

func (c *cancelTracer) Trace(ev obs.Event) {
	if c.inner != nil {
		c.inner.Trace(ev)
	}
	c.seen++
	if c.seen == c.after {
		c.stepsAtCancel = c.s.eng.Stats().Steps
		c.cancel()
	}
}

// TestRunContextCancelledPromptly pins the cancellation-latency bound: a
// run whose context dies mid-flight stops within one cancelStride of
// events, and a context dead on arrival stops before dispatching any.
func TestRunContextCancelledPromptly(t *testing.T) {
	// Dead on arrival: not a single event dispatched.
	s := mustNew(t, snapWorld(t, false, nil))
	snapJobs(s, t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, 1e6); err != ErrInterrupted {
		t.Fatalf("cancelled-before-start err = %v, want ErrInterrupted", err)
	}
	if steps := s.eng.Stats().Steps; steps != 0 {
		t.Errorf("dispatched %d events under a dead context, want 0", steps)
	}

	// Mid-run: the stop lands within one stride of the cancel.
	ctx, cancel = context.WithCancel(context.Background())
	ct := &cancelTracer{after: 100, cancel: cancel}
	s = mustNew(t, snapWorld(t, false, ct))
	ct.s = s
	snapJobs(s, t)
	if _, err := s.RunContext(ctx, 1e6); err != ErrInterrupted {
		t.Fatalf("mid-run cancel err = %v, want ErrInterrupted", err)
	}
	if ct.seen < ct.after {
		t.Fatalf("run finished after %d events; cancel never fired", ct.seen)
	}
	late := s.eng.Stats().Steps - ct.stepsAtCancel
	if late > cancelStride {
		t.Errorf("run stopped %d events after cancel, want <= %d", late, cancelStride)
	}
}

// TestRunContextCancelSnapshotResume: a context-cancelled run is left
// consistent and snapshottable, and resuming the snapshot in a fresh
// world finishes byte-identically (trace and Result) to a run that was
// never cancelled. Faults stay armed across the interruption.
func TestRunContextCancelSnapshotResume(t *testing.T) {
	const deadline = sim.Time(20000)
	wantRes, wantTrace := uninterrupted(t, true, deadline)

	var buf traceBuffer
	ctx, cancel := context.WithCancel(context.Background())
	ct := &cancelTracer{inner: tracebin.NewJSONL(&buf), after: 150, cancel: cancel}
	s := mustNew(t, snapWorld(t, true, ct))
	ct.s = s
	snapJobs(s, t)
	if _, err := s.RunContext(ctx, deadline); err != ErrInterrupted {
		t.Fatalf("RunContext err = %v, want ErrInterrupted", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after cancel: %v", err)
	}
	// Through JSON, as a file on disk would be.
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatal(err)
	}
	s2, err := Restore(snapWorld(t, true, ct), snapTrace(), &parsed)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	res, err := s2.Run(deadline)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.inner.(*tracebin.JSONL).Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("resumed result differs:\n got %+v\nwant %+v", res, wantRes)
	}
	got := string(stripCheckpointMarkers(buf.b))
	if got != string(wantTrace) {
		t.Errorf("resumed trace differs from uninterrupted trace (%d vs %d bytes)",
			len(got), len(wantTrace))
	}
}

type traceBuffer struct{ b []byte }

func (t *traceBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	return len(p), nil
}

// starvationWorld is one intermittent partition whose 100s windows can
// never hold the 150s job: every attempt is killed at the window end and
// retried after an exponential backoff.
func starvationWorld(t *testing.T) *Scheduler {
	t.Helper()
	m := cluster.NewMachine(cluster.NewPartition("zc", 8,
		availability.Periodic{Period: 1000, Uptime: 100}))
	inj, err := faults.New(faults.Config{RetryLimit: 3, Backoff: 2000})
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Machine: m, Oracle: false, Faults: inj})
	if err := s.Submit(mkJob(1, 0, 150, 4)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRetryBackoffReachesTerminal: a job that burns down to its last
// retry under the maximal backoff delay still reaches a terminal state
// (abandoned) before a generous horizon — backoff must delay retries,
// never strand jobs.
func TestRetryBackoffReachesTerminal(t *testing.T) {
	s := starvationWorld(t)
	res := mustRun(t, s, 100000)
	if res.Abandoned != 1 {
		t.Errorf("abandoned = %d, want 1 (kills: %d, requeues: %d)",
			res.Abandoned, res.Killed, res.Requeued)
	}
	if res.BackingOff != 0 {
		t.Errorf("backing off at horizon = %d, want 0", res.BackingOff)
	}
	// Killed once per attempt: initial + RetryLimit retries.
	if res.Killed != 4 {
		t.Errorf("killed = %d, want 4", res.Killed)
	}
}

// TestRetryBackoffStarvationSurfaced: when the horizon lands inside a
// backoff delay, the stranded job is reported in Result.BackingOff (and
// counted Unfinished) instead of silently vanishing.
func TestRetryBackoffStarvationSurfaced(t *testing.T) {
	s := starvationWorld(t)
	// kills at 100, 3100, 8100; the third delay (2000×2² = 8000) parks
	// the requeue at 16100, past this horizon.
	res := mustRun(t, s, 10000)
	if res.BackingOff != 1 {
		t.Errorf("backing off = %d, want 1 (killed %d, abandoned %d)",
			res.BackingOff, res.Killed, res.Abandoned)
	}
	if res.Unfinished != 1 || res.Abandoned != 0 || res.Completed != 0 {
		t.Errorf("unfinished/abandoned/completed = %d/%d/%d, want 1/0/0",
			res.Unfinished, res.Abandoned, res.Completed)
	}
}

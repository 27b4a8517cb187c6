package serve

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zccloud/internal/core"
	"zccloud/internal/obs"
	"zccloud/internal/persist"
	"zccloud/internal/sched"
)

// tinySpec is a real simulation small enough to finish in well under a
// second.
func tinySpec() Spec { return Spec{Days: 2, MiraNodes: 4096} }

// waitTerminal polls until the run leaves the active states.
func waitTerminal(t *testing.T, s *Server, id string) RunInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := s.Get(id)
		if !ok {
			t.Fatalf("run %s vanished", id)
		}
		if info.State.Terminal() {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	info, _ := s.Get(id)
	t.Fatalf("run %s stuck in state %s", id, info.State)
	return RunInfo{}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

func TestSubmitRunsToDone(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	info, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info.State != StateQueued && info.State != StateRunning {
		t.Fatalf("fresh run state = %s", info.State)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.Metrics == nil || final.Metrics.Completed == 0 {
		t.Fatalf("done run has no metrics: %+v", final.Metrics)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatal("timestamps missing")
	}
}

func TestSubmitInvalidSpecRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if _, err := s.Submit(Spec{Days: -1}); err == nil {
		t.Fatal("invalid spec admitted")
	}
	if got := len(s.List()); got != 0 {
		t.Fatalf("rejected spec registered a run: %d", got)
	}
}

func TestQueueFullSheds(t *testing.T) {
	block := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		select {
		case <-block:
			return &core.Metrics{Completed: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// First run occupies the worker, second fills the queue slot.
	first, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	// Wait for the worker to pick up run 1 so the queue is empty.
	for {
		if info, _ := s.Get(first.ID); info.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	second, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	// Queue now full: the third submission must shed, not block.
	if _, err := s.Submit(tinySpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit 3 = %v, want ErrQueueFull", err)
	}
	if s.scope.Counter("runs_shed").Value() != 1 {
		t.Fatal("shed not counted")
	}
	close(block)
	if st := waitTerminal(t, s, first.ID).State; st != StateDone {
		t.Fatalf("run 1 state = %s", st)
	}
	if st := waitTerminal(t, s, second.ID).State; st != StateDone {
		t.Fatalf("run 2 state = %s", st)
	}
}

func TestPanicIsolatedToRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		if sp.Name == "bomb" {
			panic("kaboom")
		}
		return &core.Metrics{Completed: 1}, nil
	}
	bomb, err := s.Submit(Spec{Name: "bomb"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	info := waitTerminal(t, s, bomb.ID)
	if info.State != StateFailed || !strings.Contains(info.Error, "kaboom") {
		t.Fatalf("panicked run: state %s error %q", info.State, info.Error)
	}
	// The worker that hosted the panic must still serve later runs.
	ok, err := s.Submit(Spec{Name: "after"})
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	if st := waitTerminal(t, s, ok.ID).State; st != StateDone {
		t.Fatalf("run after panic = %s, want done", st)
	}
	if s.scope.Counter("run_panics").Value() != 1 {
		t.Fatal("panic not counted")
	}
}

func TestRunDeadlineFailsRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RunTimeout: 30 * time.Millisecond})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		<-ctx.Done()
		return nil, &core.Interrupted{Snapshot: &sched.Snapshot{}}
	}
	info, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("state %s error %q, want failed deadline", final.State, final.Error)
	}
}

func TestSpecTimeoutTightensButNeverExceedsServerDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RunTimeout: time.Hour})
	start := time.Now()
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		<-ctx.Done()
		return nil, &core.Interrupted{Snapshot: &sched.Snapshot{}}
	}
	sp := tinySpec()
	sp.TimeoutSeconds = 0.05
	info, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("spec timeout did not tighten the server deadline (%v)", elapsed)
	}
}

func TestCancelQueuedRun(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &core.Metrics{Completed: 1}, nil
	}
	blocker, _ := s.Submit(tinySpec())
	for {
		if info, _ := s.Get(blocker.ID); info.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	info, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if info.State != StateCancelled {
		t.Fatalf("queued cancel state = %s, want cancelled immediately", info.State)
	}
	// Cancelling again reports the terminal state.
	if _, err := s.Cancel(queued.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel = %v, want ErrTerminal", err)
	}
}

func TestCancelRunningRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	started := make(chan struct{})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		close(started)
		<-ctx.Done()
		return nil, &core.Interrupted{Snapshot: &sched.Snapshot{}}
	}
	info, _ := s.Submit(tinySpec())
	<-started
	if _, err := s.Cancel(info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s (%s), want cancelled", final.State, final.Error)
	}
}

func TestCancelUnknownRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if _, err := s.Cancel("r-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel = %v, want ErrNotFound", err)
	}
}

func TestDrainRefusesNewWorkAndCancelsQueued(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		select {
		case <-block:
			return &core.Metrics{Completed: 1}, nil
		case <-ctx.Done():
			return nil, &core.Interrupted{Snapshot: &sched.Snapshot{}}
		}
	}
	running, _ := s.Submit(tinySpec())
	for {
		if info, _ := s.Get(running.ID); info.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	queued, _ := s.Submit(tinySpec())

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Admission must close promptly, before the drain completes.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(tinySpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st, _ := s.Get(queued.ID); st.State != StateCancelled {
		t.Fatalf("queued run after drain = %s, want cancelled", st.State)
	}
	// The running run was interrupted at grace expiry; with no data dir
	// it lands in cancelled.
	if st, _ := s.Get(running.ID); st.State != StateCancelled {
		t.Fatalf("running run after drain = %s, want cancelled", st.State)
	}
}

// TestDrainCheckpointsAndResumes is the tentpole's round trip: a real
// simulation is interrupted by drain, parked as a snapshot in the data
// dir, and resumed to the same metrics an uninterrupted run produces.
func TestDrainCheckpointsAndResumes(t *testing.T) {
	dir := t.TempDir()
	// Long enough that the drain reliably lands mid-run.
	spec := Spec{Days: 365, MiraNodes: 4096, Scale: 2}.withDefaults()

	// Reference: the same spec run to completion, no interruption.
	refCfg, err := spec.runConfig(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(refCfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	s, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, _ := s.Get(info.ID)
		if st.State == StateRunning || st.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Drain with an already-expired grace: checkpoint immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	final, _ := s.Get(info.ID)
	if final.State == StateDone {
		t.Skip("run finished before the drain interrupted it")
	}
	if final.State != StateCheckpointed {
		t.Fatalf("state = %s (%s), want checkpointed", final.State, final.Error)
	}
	if final.Checkpoint == "" {
		t.Fatal("checkpointed run has no snapshot path")
	}

	// The parked snapshot resumes — under the same system config — to
	// exactly the uninterrupted run's metrics.
	snap, err := sched.LoadSnapshot(final.Checkpoint)
	if err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}
	resumeCfg, err := spec.runConfig(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Resume(resumeCfg, snap)
	if err != nil {
		t.Fatalf("resuming checkpoint: %v", err)
	}
	if got.Completed != want.Completed || got.AvgWaitHrs != want.AvgWaitHrs ||
		got.MakespanDays != want.MakespanDays {
		t.Fatalf("resumed metrics diverge: got %d jobs / %.6f h / %.6f d, want %d / %.6f / %.6f",
			got.Completed, got.AvgWaitHrs, got.MakespanDays,
			want.Completed, want.AvgWaitHrs, want.MakespanDays)
	}

	// The journal replays to terminal states.
	states := map[string]State{}
	err = persist.ReadJournal(filepath.Join(dir, "runs.jsonl"),
		func() any { return new(journalRecord) },
		func(rec any) error {
			jr := rec.(*journalRecord)
			states[jr.Run] = jr.State
			return nil
		})
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	if st := states[info.ID]; st != StateCheckpointed {
		t.Fatalf("journal final state = %s, want checkpointed", st)
	}
}

func TestDrainIsIdempotent(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentSpecRuns(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	info, err := s.Submit(Spec{Experiment: "table5"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != StateDone {
		t.Fatalf("experiment state = %s (%s)", final.State, final.Error)
	}
	if final.Table == nil || len(final.Table.Rows) == 0 {
		t.Fatal("experiment run returned no table")
	}
	if final.Metrics != nil {
		t.Fatal("experiment run should not carry simulation metrics")
	}
}

func TestJournalSicknessDoesNotFailRuns(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// The run is admitted while the journal is healthy and held in its
	// worker until the journal has gone sick.
	sick := make(chan struct{})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		<-sick
		cfg, err := sp.runConfig(obs.Options{})
		if err != nil {
			return nil, err
		}
		return core.RunContext(ctx, cfg)
	}
	info, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatalf("Submit with healthy journal: %v", err)
	}
	// Swap in an appender that always fails: every later record is
	// dropped, but the admitted run must still reach done. The swap
	// takes the sink's lock — the telemetry sampler is already reading
	// the sink.
	s.journal.mu.Lock()
	s.journal.app = &brokenAppender{}
	s.journal.retry.Sleep = func(time.Duration) {}
	s.journal.mu.Unlock()
	close(sick)

	// A submission the journal cannot record is refused and leaves no
	// run behind: a restart could not re-adopt it.
	if _, err := s.Submit(tinySpec()); !errors.Is(err, ErrJournalUnavailable) {
		t.Fatalf("Submit with sick journal = %v, want ErrJournalUnavailable", err)
	}
	if runs := s.List(); len(runs) != 1 || runs[0].ID != info.ID {
		t.Fatalf("registered runs = %+v, want only %s", runs, info.ID)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != StateDone {
		t.Fatalf("run state = %s; journal sickness must not fail runs", final.State)
	}
	if s.JournalDropped() == 0 {
		t.Fatal("dropped records not counted")
	}
}

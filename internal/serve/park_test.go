package serve

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"zccloud/internal/admit"
	"zccloud/internal/core"
	"zccloud/internal/obs"
	"zccloud/internal/persist"
	"zccloud/internal/sched"
	"zccloud/internal/tracebin"
)

// countFinishes counts the finish events of a committed trace.
func countFinishes(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	n := 0
	err = tracebin.ReadAny(f, func(e obs.Event) error {
		if e.Kind == obs.EvFinish {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	return n
}

// replayedRun returns run id as a server starting on dir replays it from
// runs.jsonl, failing the test when the replay would not re-adopt it.
func replayedRun(t *testing.T, dir, id string) journalRecord {
	t.Helper()
	open, _, err := replayRuns(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range open {
		if rec.Run == id {
			return rec
		}
	}
	t.Fatalf("run %s not replayed as unfinished", id)
	return journalRecord{}
}

// TestDrainedRunResumesOnRestart: a run drained mid-simulation is
// re-adopted by a successor server on the same data dir and completes
// to exactly the metrics of an uninterrupted run, leaving no park
// artifacts behind.
func TestDrainedRunResumesOnRestart(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Days: 365, MiraNodes: 4096, Scale: 2}.withDefaults()
	refCfg, err := spec.runConfig(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(refCfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	a, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	info, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, _ := a.Get(info.ID)
		if st.State == StateRunning || st.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Drain with an already-expired grace: checkpoint immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain A: %v", err)
	}
	drained, _ := a.Get(info.ID)
	if drained.State == StateDone {
		t.Skip("run finished before the drain interrupted it")
	}
	if drained.State != StateCheckpointed {
		t.Fatalf("state after drain = %s (%s), want checkpointed", drained.State, drained.Error)
	}
	snapFile := filepath.Join(dir, drained.ID+".snapshot.json")
	if drained.Checkpoint != snapFile {
		t.Fatalf("checkpoint = %q, want %q", drained.Checkpoint, snapFile)
	}
	if !fileExists(snapFile) {
		t.Fatal("drain left no snapshot")
	}
	if fileExists(filepath.Join(dir, "parked")) {
		t.Fatal("drain created a parked/ directory")
	}
	if rec := replayedRun(t, dir, drained.ID); rec.State != StateCheckpointed || rec.Spec == nil || *rec.Spec != spec {
		t.Fatalf("journal replays %s as %s with spec %+v; want checkpointed with %+v", drained.ID, rec.State, rec.Spec, spec)
	}

	b := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if got := b.scope.Counter("power_readopted").Value(); got != 1 {
		t.Fatalf("power_readopted = %d, want 1", got)
	}
	final := waitTerminal(t, b, drained.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	got := final.Metrics
	if got.Completed != want.Completed || got.AvgWaitHrs != want.AvgWaitHrs ||
		got.MakespanDays != want.MakespanDays {
		t.Fatalf("resumed metrics diverge: got %d jobs / %.6f h / %.6f d, want %d / %.6f / %.6f",
			got.Completed, got.AvgWaitHrs, got.MakespanDays,
			want.Completed, want.AvgWaitHrs, want.MakespanDays)
	}
	if fileExists(snapFile) {
		t.Fatal("snapshot not cleaned up after completion")
	}
}

// TestOldSnapshotRerunsFromSpec: a run parked by an older build holds a
// snapshot in a format this build cannot read. The successor re-runs it
// from its journaled spec, to a fresh run's metrics, instead of failing.
func TestOldSnapshotRerunsFromSpec(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec().withDefaults()
	refCfg, err := spec.runConfig(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(refCfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	a, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		<-ctx.Done()
		return nil, &core.Interrupted{Snapshot: &sched.Snapshot{}}
	}
	info, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if st, _ := a.Get(info.ID); st.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain A: %v", err)
	}
	if st, _ := a.Get(info.ID); st.State != StateCheckpointed {
		t.Fatalf("state after drain = %s (%s), want checkpointed", st.State, st.Error)
	}
	// The older build's park: the same envelope at snapshot version 1.
	snapFile := filepath.Join(dir, info.ID+".snapshot.json")
	if err := persist.SaveJSON(snapFile, "zccloud-snapshot", 1, struct{}{}); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, Config{Workers: 1, DataDir: dir})
	final := waitTerminal(t, b, info.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if !reflect.DeepEqual(final.Metrics, want) {
		t.Fatalf("re-run metrics %+v, want a fresh run's %+v", final.Metrics, want)
	}
	if fileExists(snapFile) {
		t.Fatal("old snapshot not cleaned up after completion")
	}
}

// TestReadoptedRunsBeyondQueueDepthComplete: without power admission no
// power loop resubmits parked runs, so the re-adopted runs that do not
// fit the queue at startup must still be queued as workers free slots.
func TestReadoptedRunsBeyondQueueDepthComplete(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Workers: 3, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Each run blocks until the drain interrupts it, then hands back a
	// real snapshot: the workload paused before its first event.
	a.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		<-ctx.Done()
		cfg, err := sp.runConfig(obs.Options{})
		if err != nil {
			return nil, err
		}
		paused, pause := context.WithCancel(context.Background())
		pause()
		return core.RunContext(paused, cfg)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		info, err := a.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		for {
			if st, _ := a.Get(id); st.State == StateRunning {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain A: %v", err)
	}
	for _, id := range ids {
		if st, _ := a.Get(id); st.State != StateCheckpointed {
			t.Fatalf("run %s after drain = %s (%s), want checkpointed", id, st.State, st.Error)
		}
	}

	b := newTestServer(t, Config{Workers: 2, QueueDepth: 1, DataDir: dir})
	if got := b.scope.Counter("power_readopted").Value(); got != 3 {
		t.Fatalf("power_readopted = %d, want 3", got)
	}
	for _, id := range ids {
		if final := waitTerminal(t, b, id); final.State != StateDone {
			t.Fatalf("run %s = %s (%s), want done", id, final.State, final.Error)
		}
	}
}

// TestPowerParkedTraceKeepsPrefix: a traced run preempted mid-run by the
// power guard and resumed lands one trace holding the whole run, with
// as many finish events as the same run traced without interruption.
func TestPowerParkedTraceKeepsPrefix(t *testing.T) {
	// An overloaded year: deep queues make the simulation, not the
	// workload build, take most of the run's time.
	spec := Spec{Days: 365, MiraNodes: 4096, Scale: 4, Trace: "run.zct"}
	ref := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	refInfo, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitTerminal(t, ref, refInfo.ID)
	if refFinal.State != StateDone {
		t.Fatalf("reference run = %s (%s), want done", refFinal.State, refFinal.Error)
	}
	want := countFinishes(t, refFinal.Trace)

	// A 0.4 s window with a 0.3 s guard preempts the run about 0.1 s in;
	// the second window, from 1 s on, is long enough to finish it.
	s := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir(), PowerTick: 10 * time.Millisecond,
		Power: admit.Config{
			Envelope: powerEnv(t, 0, admit.Window{Start: 0, End: 0.4}, admit.Window{Start: 1, End: 3600}),
			Policy:   admit.PolicyPark,
			Guard:    300 * time.Millisecond,
		}})
	spec.CostHintSeconds = 0.01
	info, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var parked RunInfo
	for parked.State != StateParkedPower && !parked.State.Terminal() {
		time.Sleep(time.Millisecond)
		parked, _ = s.Get(info.ID)
	}
	if parked.State != StateParkedPower {
		t.Skip("run finished before the power guard preempted it")
	}
	if prefix := countFinishes(t, parked.Trace); prefix == 0 || prefix >= want {
		t.Skipf("preempted with %d of %d finish events done; want mid-run", prefix, want)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if got := countFinishes(t, final.Trace); got != want {
		t.Fatalf("resumed trace has %d finish events, want %d (uninterrupted run)", got, want)
	}
}

// TestQueuedAndRunningRunsSurviveKill: runs queued or running when a
// server is killed are re-adopted from runs.jsonl by a successor on the
// same data dir and complete; the running simulation re-runs to the
// uninterrupted run's metrics.
func TestQueuedAndRunningRunsSurviveKill(t *testing.T) {
	dir := t.TempDir()
	long := Spec{Days: 365, MiraNodes: 4096, Scale: 2}.withDefaults()
	refCfg, err := long.runConfig(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(refCfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	a, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	running, err := a.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := a.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, _ := a.Get(running.ID)
		if st.State == StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Skip("run finished before the kill")
		}
		time.Sleep(time.Millisecond)
	}
	a.Kill()
	for id, st := range map[string]State{running.ID: StateRunning, queued.ID: StateQueued} {
		if rec := replayedRun(t, dir, id); rec.State != st {
			t.Fatalf("journal replays %s as %s, want %s", id, rec.State, st)
		}
	}

	b := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if got := b.scope.Counter("power_readopted").Value(); got != 2 {
		t.Fatalf("power_readopted = %d, want 2", got)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if final := waitTerminal(t, b, id); final.State != StateDone {
			t.Fatalf("run %s = %s (%s), want done", id, final.State, final.Error)
		}
	}
	got, _ := b.Get(running.ID)
	if m := got.Metrics; m.Completed != want.Completed || m.AvgWaitHrs != want.AvgWaitHrs ||
		m.MakespanDays != want.MakespanDays {
		t.Fatalf("re-adopted metrics diverge: got %d jobs / %.6f h / %.6f d, want %d / %.6f / %.6f",
			m.Completed, m.AvgWaitHrs, m.MakespanDays, want.Completed, want.AvgWaitHrs, want.MakespanDays)
	}
}

// TestRunIDsNotReusedAfterRestart: a successor server on the same data
// dir issues ids past every journaled one, so no two runs share an id
// in runs.jsonl.
func TestRunIDsNotReusedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, a, first.ID); final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := newTestServer(t, Config{Workers: 1, DataDir: dir})
	second, err := b.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatalf("successor reissued run id %s", second.ID)
	}
}

// TestClientCancelDuringParkWins: a client cancel that reaches a run the
// drain has already interrupted cannot cancel its context again (the
// first cause wins), but it still ends the run cancelled — not
// checkpointed for a successor to resume and complete.
func TestClientCancelDuringParkWins(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ids := make(chan string, 1)
	cancelErr := make(chan error, 1)
	a.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		<-ctx.Done()
		_, err := a.Cancel(<-ids)
		cancelErr <- err
		return nil, &core.Interrupted{Snapshot: &sched.Snapshot{}}
	}
	info, err := a.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ids <- info.ID
	for {
		if st, _ := a.Get(info.ID); st.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain A: %v", err)
	}
	if err := <-cancelErr; err != nil {
		t.Fatalf("Cancel during the park: %v", err)
	}
	final, _ := a.Get(info.ID)
	if final.State != StateCancelled || final.Error != errCancelled.Error() {
		t.Fatalf("state = %s (%s), want cancelled by the client", final.State, final.Error)
	}
	if fileExists(filepath.Join(dir, info.ID+".snapshot.json")) {
		t.Fatal("cancelled run's park snapshot left behind")
	}
	b := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if got := b.scope.Counter("power_readopted").Value(); got != 0 {
		t.Fatalf("power_readopted = %d, want 0", got)
	}
	if _, ok := b.Get(info.ID); ok {
		t.Fatalf("successor re-adopted cancelled run %s", info.ID)
	}
}

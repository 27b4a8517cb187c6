package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zccloud/internal/admit"
	"zccloud/internal/core"
	"zccloud/internal/obs"
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
	parkedFile := filepath.Join(dir, "parked", drained.ID+".json")
	if drained.Checkpoint != snapFile {
		t.Fatalf("checkpoint = %q, want %q", drained.Checkpoint, snapFile)
	}
	if !fileExists(snapFile) || !fileExists(parkedFile) {
		t.Fatalf("drain left snapshot %v, parked record %v; want both",
			fileExists(snapFile), fileExists(parkedFile))
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
	if fileExists(snapFile) || fileExists(parkedFile) {
		t.Fatalf("after completion: snapshot %v, parked record %v; want both gone",
			fileExists(snapFile), fileExists(parkedFile))
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

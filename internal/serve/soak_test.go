package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"zccloud/internal/core"
	"zccloud/internal/persist"
	"zccloud/internal/sched"
)

// TestChaosSoak is the chaos harness over the in-process service:
// concurrent HTTP submitters firing a mix of valid simulations (some
// with fault injection and invariant checking), malformed specs, and
// experiments; concurrent cancellers aiming at random runs; then a
// drain in the middle of the traffic. Invariants asserted at the end:
//
//   - every accepted run reached exactly one terminal state;
//   - no run died to an invariant violation;
//   - the run journal replays to terminal states;
//   - the goroutine count returns to baseline (nothing leaked).
//
// Run it under -race to make the scheduler's word on data races count.
func TestChaosSoak(t *testing.T) {
	submitsPerWorker := 25
	if testing.Short() {
		submitsPerWorker = 8
	}
	baseline := runtime.NumGoroutine()

	dir := t.TempDir()
	s, err := New(Config{Workers: 4, QueueDepth: 8, DataDir: dir, RunTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	client := &http.Client{Transport: &http.Transport{}}

	specs := []string{
		`{"days": 2, "mira_nodes": 4096}`,
		`{"days": 2, "mira_nodes": 4096, "check": true}`,
		`{"days": 3, "mira_nodes": 4096, "zc_factor": 1, "kill_requeue": true, "mtbf_hours": 12, "retry_limit": 3, "backoff_hours": 1, "backoff_jitter": true, "check": true}`,
		`{"days": 365, "mira_nodes": 4096, "scale": 2}`, // long: drain lands mid-run
		`{"experiment": "table5"}`,
		`{"days": -4}`,       // invalid: rejected, never registered
		`{"bogus_field": 1}`, // malformed: 400
	}

	var mu sync.Mutex
	var accepted []string

	post := func(body string) (int, string) {
		resp, err := client.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, ""
		}
		defer resp.Body.Close()
		var info RunInfo
		json.NewDecoder(resp.Body).Decode(&info)
		return resp.StatusCode, info.ID
	}

	const submitters = 6
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < submitsPerWorker; i++ {
				body := specs[rng.Intn(len(specs))]
				status, id := post(body)
				switch status {
				case http.StatusAccepted:
					mu.Lock()
					accepted = append(accepted, id)
					mu.Unlock()
				case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// shed, refused, or draining: all fine under chaos
				case 0:
					// transport error during server teardown
				default:
					t.Errorf("unexpected status %d for %s", status, body)
				}
				// Randomly cancel someone else's run (or our own).
				if rng.Intn(3) == 0 {
					mu.Lock()
					var victim string
					if len(accepted) > 0 {
						victim = accepted[rng.Intn(len(accepted))]
					}
					mu.Unlock()
					if victim != "" {
						req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+victim, nil)
						if resp, err := client.Do(req); err == nil {
							resp.Body.Close()
						}
					}
				}
			}
		}(w)
	}

	// Drain mid-traffic: submitters are still firing when admission
	// closes, exactly like a SIGTERM under load.
	time.Sleep(150 * time.Millisecond)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancelDrain()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	ts.Close()
	client.CloseIdleConnections()

	// Invariant 1: every accepted run is terminal, none by invariant
	// violation.
	mu.Lock()
	ids := append([]string(nil), accepted...)
	mu.Unlock()
	if len(ids) == 0 {
		t.Fatal("soak accepted no runs; chaos mix too hostile")
	}
	counts := map[State]int{}
	for _, id := range ids {
		info, ok := s.Get(id)
		if !ok {
			t.Errorf("accepted run %s not registered", id)
			continue
		}
		if !info.State.Terminal() {
			t.Errorf("run %s stuck in %s after drain", id, info.State)
		}
		if strings.Contains(info.Error, "invariant") {
			t.Errorf("run %s died to invariant violation: %s", id, info.Error)
		}
		counts[info.State]++
	}
	t.Logf("soak: %d accepted: %v (journal drops: %d)", len(ids), counts, s.JournalDropped())

	// Invariant 2: the journal replays to the same terminal states.
	finals := map[string]State{}
	err = persist.ReadJournal(filepath.Join(dir, "runs.jsonl"),
		func() any { return new(journalRecord) },
		func(rec any) error {
			jr := rec.(*journalRecord)
			finals[jr.Run] = jr.State
			return nil
		})
	if err != nil {
		t.Fatalf("replaying journal: %v", err)
	}
	if s.JournalDropped() == 0 {
		for _, id := range ids {
			if st, ok := finals[id]; !ok || !st.Terminal() {
				t.Errorf("journal final state for %s = %v, want terminal", id, st)
			}
		}
	}

	// Invariant 3: no goroutine leaks. Workers, HTTP conns, and run
	// contexts must all be gone.
	checkGoroutines(t, baseline)
}

// checkGoroutines polls until the goroutine count returns to (near) the
// baseline, dumping all stacks on failure. Hand-rolled because the
// container has no leak-checking dependency — the tolerance of +2
// covers runtime helpers (GC workers, timer goroutines) that come and
// go on their own.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestSoakEveryStateReachable drives a deterministic mix through the
// test hook so each terminal state shows up at least once: the state
// machine's full surface is exercised on every CI run without timing
// races.
func TestSoakEveryStateReachable(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 3, QueueDepth: 8, DataDir: dir, RunTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		if sp.Name == "done" {
			return &core.Metrics{Completed: 1}, nil
		}
		<-ctx.Done() // blocks until cancel, deadline, or drain
		return nil, &core.Interrupted{Snapshot: &sched.Snapshot{}}
	}

	done, err := s.Submit(Spec{Name: "done"})
	if err != nil {
		t.Fatal(err)
	}
	cancelMe, err := s.Submit(Spec{Name: "block"})
	if err != nil {
		t.Fatal(err)
	}
	failMe, err := s.Submit(Spec{Name: "block", TimeoutSeconds: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	parkMe, err := s.Submit(Spec{Name: "block"})
	if err != nil {
		t.Fatal(err)
	}

	waitTerminal(t, s, done.ID)
	for {
		info, _ := s.Get(cancelMe.ID)
		if info.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Cancel(cancelMe.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitTerminal(t, s, cancelMe.ID)
	waitTerminal(t, s, failMe.ID)
	for {
		info, _ := s.Get(parkMe.ID)
		if info.State == StateRunning || info.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	want := map[string]State{
		done.ID:     StateDone,
		cancelMe.ID: StateCancelled,
		failMe.ID:   StateFailed,
		parkMe.ID:   StateCheckpointed,
	}
	for id, wantSt := range want {
		info, _ := s.Get(id)
		if info.State != wantSt {
			t.Errorf("run %s = %s (%s), want %s", id, info.State, info.Error, wantSt)
		}
	}
	// The parked snapshot file is a well-formed checksummed envelope.
	if info, _ := s.Get(parkMe.ID); info.State == StateCheckpointed {
		if _, err := sched.LoadSnapshot(info.Checkpoint); err != nil {
			t.Errorf("checkpoint unreadable: %v", err)
		}
	}
}

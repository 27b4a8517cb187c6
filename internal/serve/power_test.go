package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zccloud/internal/admit"
	"zccloud/internal/core"
	"zccloud/internal/sim"
)

// powerEnv builds a test envelope or fails the test.
func powerEnv(t *testing.T, horizon sim.Duration, wins ...admit.Window) *admit.Envelope {
	t.Helper()
	env, err := admit.NewEnvelope(wins, horizon, nil)
	if err != nil {
		t.Fatalf("NewEnvelope: %v", err)
	}
	return env
}

// fileExists is a tiny wrapper so assertions read well.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestPowerShedInfeasibleSubmission(t *testing.T) {
	// Window opens an hour from now; a 60-second deadline cannot fit.
	s := newTestServer(t, Config{Workers: 1, Power: admit.Config{
		Envelope: powerEnv(t, 0, admit.Window{Start: 3600, End: 7200}),
		Policy:   admit.PolicyShed,
	}})
	sp := tinySpec()
	sp.DeadlineSeconds = 60
	_, err := s.Submit(sp)
	var shed *PowerShedError
	if !errors.As(err, &shed) {
		t.Fatalf("Submit = %v, want PowerShedError", err)
	}
	if shed.Reason != admit.ReasonCapacity {
		t.Fatalf("reason = %s, want %s", shed.Reason, admit.ReasonCapacity)
	}
	// The hint is the wait until the window opens: ~1h of schedule time
	// at speed 1.
	if shed.RetryAfter < 55*time.Minute || shed.RetryAfter > 65*time.Minute {
		t.Fatalf("RetryAfter = %v, want ~1h", shed.RetryAfter)
	}
	if got := len(s.List()); got != 0 {
		t.Fatalf("shed submission registered a run: %d", got)
	}
	if s.scope.Counter("power_admit_shed").Value() != 1 {
		t.Fatal("shed not counted")
	}
}

func TestPowerShedRetryAfterHeader(t *testing.T) {
	_, ts := newAPIServer(t, Config{Workers: 1, Power: admit.Config{
		Envelope: powerEnv(t, 0, admit.Window{Start: 3600, End: 7200}),
		Policy:   admit.PolicyShed,
	}})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/runs",
		`{"days": 2, "mira_nodes": 4096, "deadline_seconds": 60}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	// Jittered [0.5, 1.5) around the ~3600 s window wait, capped at the
	// power ceiling of 3600.
	if ra < 1800 || ra > 3600 {
		t.Fatalf("Retry-After = %d, want within [1800, 3600]", ra)
	}
}

func TestPowerAdmitFeasibleRuns(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Power: admit.Config{
		Envelope: powerEnv(t, 0, admit.Window{Start: 0, End: 3600}),
		Policy:   admit.PolicyShed,
	}})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		return &core.Metrics{Completed: 1}, nil
	}
	sp := tinySpec()
	sp.DeadlineSeconds = 60
	sp.CostHintSeconds = 1
	info, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitTerminal(t, s, info.ID).State; st != StateDone {
		t.Fatalf("state = %s, want done", st)
	}
	if s.scope.Counter("power_admit_ok").Value() != 1 {
		t.Fatal("admit not counted")
	}
}

func TestPowerRequireDeadline(t *testing.T) {
	s, ts := newAPIServer(t, Config{Workers: 1, Power: admit.Config{
		Envelope:        powerEnv(t, 0, admit.Window{Start: 0, End: 3600}),
		Policy:          admit.PolicyShed,
		RequireDeadline: true,
	}})
	if _, err := s.Submit(tinySpec()); !errors.Is(err, ErrDeadlineRequired) {
		t.Fatalf("Submit = %v, want ErrDeadlineRequired", err)
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/runs", `{"days": 2, "mira_nodes": 4096}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
}

func TestPowerSpecPolicyOverridesShed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Power: admit.Config{
		Envelope: powerEnv(t, 0, admit.Window{Start: 3600, End: 7200}),
		Policy:   admit.PolicyShed,
	}})
	sp := tinySpec()
	sp.DeadlineSeconds = 60
	sp.PowerPolicy = "park"
	info, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info.State != StateParkedPower {
		t.Fatalf("state = %s, want %s", info.State, StateParkedPower)
	}
}

func TestPowerParkResumesWhenWindowOpens(t *testing.T) {
	// The window opens half a second after boot; a 20 s cost hint cannot
	// fit a 10 s deadline, so the submission parks — and the pessimistic
	// hint means the run still completes once the window opens.
	s := newTestServer(t, Config{Workers: 1, PowerTick: 10 * time.Millisecond,
		Power: admit.Config{
			Envelope: powerEnv(t, 0, admit.Window{Start: 0.5, End: 30}),
			Policy:   admit.PolicyPark,
		}})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		return &core.Metrics{Completed: 1}, nil
	}
	sp := tinySpec()
	sp.DeadlineSeconds = 10
	sp.CostHintSeconds = 20
	info, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info.State != StateParkedPower {
		t.Fatalf("state = %s, want %s", info.State, StateParkedPower)
	}
	if st := waitTerminal(t, s, info.ID).State; st != StateDone {
		t.Fatalf("state = %s, want done", st)
	}
	if s.scope.Counter("power_resubmitted").Value() == 0 {
		t.Fatal("resubmission not counted")
	}
}

func TestPowerParkedRunExpires(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, PowerTick: 10 * time.Millisecond,
		Power: admit.Config{
			Envelope: powerEnv(t, 0, admit.Window{Start: 3600, End: 7200}),
			Policy:   admit.PolicyPark,
		}})
	sp := tinySpec()
	sp.DeadlineSeconds = 0.2
	info, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "expired while parked") {
		t.Fatalf("error = %q, want parked-expiry message", final.Error)
	}
}

func TestPowerGuardPreemptsMidRun(t *testing.T) {
	// A 2 s window with a 500 ms guard: the run starts, is preemptively
	// interrupted before the window closes, parks, and completes when
	// the schedule loops back open at t=4 s.
	var attempts atomic.Int32
	s := newTestServer(t, Config{Workers: 1, PowerTick: 10 * time.Millisecond,
		Power: admit.Config{
			Envelope: powerEnv(t, 4, admit.Window{Start: 0, End: 2}),
			Policy:   admit.PolicyPark,
			Guard:    500 * time.Millisecond,
		}})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		if attempts.Add(1) == 1 {
			<-ctx.Done()
			return nil, &core.Interrupted{}
		}
		return &core.Metrics{Completed: 1}, nil
	}
	sp := tinySpec()
	sp.CostHintSeconds = 1
	info, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitTerminal(t, s, info.ID).State; st != StateDone {
		t.Fatalf("state = %s, want done", st)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (preempted once, resumed once)", got)
	}
	if s.scope.Counter("power_preempted").Value() == 0 {
		t.Fatal("preemption not counted")
	}
	if s.scope.Counter("power_parked_midrun").Value() == 0 {
		t.Fatal("mid-run park not counted")
	}
}

func TestPowerParkSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	closed := admit.Config{
		Envelope: powerEnv(t, 0, admit.Window{Start: 1000, End: 2000}),
		Policy:   admit.PolicyPark,
	}
	a, err := New(Config{Workers: 1, DataDir: dir, PowerTick: 10 * time.Millisecond, Power: closed})
	if err != nil {
		t.Fatalf("New A: %v", err)
	}
	sp := tinySpec()
	sp.DeadlineSeconds = 900
	sp.CostHintSeconds = 600
	info, err := a.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info.State != StateParkedPower {
		t.Fatalf("state = %s, want %s", info.State, StateParkedPower)
	}
	if fileExists(filepath.Join(dir, "parked")) {
		t.Fatal("park created a parked/ directory")
	}
	if rec := replayedRun(t, dir, info.ID); rec.State != StateParkedPower || rec.Spec == nil || *rec.Spec != sp.withDefaults() {
		t.Fatalf("journal replays %s as %s with spec %+v; want parked-for-power with %+v", info.ID, rec.State, rec.Spec, sp.withDefaults())
	}
	a.Kill()

	// The successor boots with the window open, re-adopts the parked
	// run, and completes it.
	open := admit.Config{
		Envelope: powerEnv(t, 0, admit.Window{Start: 0, End: 3600}),
		Policy:   admit.PolicyPark,
	}
	b := newTestServer(t, Config{Workers: 1, DataDir: dir, PowerTick: 10 * time.Millisecond, Power: open})
	if b.scope.Counter("power_readopted").Value() != 1 {
		t.Fatal("parked run not re-adopted")
	}
	final := waitTerminal(t, b, info.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if open, _, err := replayRuns(filepath.Join(dir, "runs.jsonl")); err != nil || len(open) != 0 {
		t.Fatalf("journal still replays %d unfinished runs (%v) after completion", len(open), err)
	}
}

func TestPowerBrownoutShrinksWorkerLimit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, Power: admit.Config{
		Envelope: powerEnv(t, 0, admit.Window{Start: 0, End: 3600, Frac: 0.5}),
		Policy:   admit.PolicyShed,
	}})
	st := s.Status()
	if st.Power == nil {
		t.Fatal("status has no power block")
	}
	if !st.Power.WindowOpen {
		t.Fatal("window should be open")
	}
	if st.Power.WorkerLimit != 2 {
		t.Fatalf("worker limit = %d, want 2 (half of 4)", st.Power.WorkerLimit)
	}
	if st.Power.Policy != string(admit.PolicyShed) {
		t.Fatalf("policy = %s, want shed", st.Power.Policy)
	}
}

func TestPowerClaimGateClosedWindow(t *testing.T) {
	_, ts := newAPIServer(t, Config{Workers: 1, Power: admit.Config{
		Envelope: powerEnv(t, 0, admit.Window{Start: 3600, End: 7200}),
		Policy:   admit.PolicyShed,
	}})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/cells/claim", `{"agent": "a-1.x"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("claim = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("claim 503 carries no Retry-After")
	}
}

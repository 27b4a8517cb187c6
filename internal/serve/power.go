package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"zccloud/internal/admit"
	"zccloud/internal/obs"
	"zccloud/internal/persist"
	"zccloud/internal/sched"
	"zccloud/internal/tracebin"
)

// Renewable-aware admission: when the server is configured with a
// stranded-power schedule (Config.Power), every submission is checked
// against the forecasted power envelope before it is queued. A run
// whose estimated cost cannot fit before its deadline is shed (429 +
// Retry-After derived from the next predicted window) or parked
// durably in the parked-for-power state, to be resubmitted when the
// window opens. The worker pool follows the envelope too: concurrency
// shrinks on brownout, drops to zero while the window is closed, and —
// with a guard configured — running simulations are preemptively
// drained to checkpoints before the window's predicted end rather than
// killed mid-run.

// ErrDeadlineRequired refuses a submission that carries no
// deadline_seconds while the server requires one for power admission.
var ErrDeadlineRequired = errors.New("serve: power admission requires deadline_seconds")

// errPowerPark is the cancellation cause of a preemptive power drain;
// settleInterrupted parks the run for the window to reopen.
var errPowerPark = errors.New("parked for power window end")

// defaultCostEstimate prices a submission with no cost hint before any
// run has finished (afterwards the exec-time EWMA takes over).
const defaultCostEstimate = 30 * time.Second

// PowerShedError reports a power-infeasible submission under the shed
// policy. The HTTP layer maps it to 429 with a Retry-After derived
// from the next predicted stranded-power window.
type PowerShedError struct {
	// Reason is the admit.Reason* constant behind the decision.
	Reason string
	// RetryAfter is the wall-clock wait until the decision could change
	// (zero when no retry will ever help).
	RetryAfter time.Duration
}

func (e *PowerShedError) Error() string {
	return fmt.Sprintf("serve: shed for power (%s): estimated cost does not fit forecasted stranded-power capacity", e.Reason)
}

// workGate throttles run launches to the power envelope's concurrency
// limit. Workers acquire a slot before executing; the power loop moves
// the limit as windows open, brown out, and close. It deliberately
// gates launches only — a limit drop never kills work already running
// (the guard-driven preemptive park handles that gracefully).
type workGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	limit  int
	active int
	closed bool
}

func newWorkGate(limit int) *workGate {
	g := &workGate{limit: limit}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until a launch slot is allowed under the current
// limit; false means the gate closed (server shutting down).
func (g *workGate) acquire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.closed && g.active >= g.limit {
		g.cond.Wait()
	}
	if g.closed {
		return false
	}
	g.active++
	return true
}

func (g *workGate) release() {
	g.mu.Lock()
	g.active--
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *workGate) setLimit(n int) {
	g.mu.Lock()
	changed := n != g.limit
	g.limit = n
	g.mu.Unlock()
	if changed {
		g.cond.Broadcast()
	}
}

func (g *workGate) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// The power schedule's epoch file, <data>/power.json.
const (
	powerEpochKind    = "zccd-power-epoch"
	powerEpochVersion = 1
)

// powerEpochRecord pins the power schedule's wall-clock origin across
// restarts, so a re-adopted schedule stays in phase.
type powerEpochRecord struct {
	Epoch time.Time `json:"epoch"`
}

// initPower builds the worker gate and, when a power schedule is
// configured, the admission controller — resolving the schedule epoch
// from <data>/power.json so restarts replay the schedule in phase.
// Must run before the worker pool starts.
func (s *Server) initPower() error {
	s.gate = newWorkGate(s.cfg.Workers)
	pc := s.cfg.Power
	if pc.Envelope == nil {
		return nil
	}
	if pc.Clock.Epoch.IsZero() {
		epoch, err := s.loadPowerEpoch()
		if err != nil {
			return err
		}
		pc.Clock.Epoch = epoch
	}
	s.power = admit.NewController(pc)
	if s.power.Enabled() {
		// Align the gate before any worker can launch: a server booting
		// into a closed window must not start runs.
		s.powerTick(time.Now())
	}
	return nil
}

// loadPowerEpoch loads (or creates) the persisted schedule epoch. With
// no data dir the epoch is simply server start.
func (s *Server) loadPowerEpoch() (time.Time, error) {
	if s.cfg.DataDir == "" {
		return s.started, nil
	}
	path := filepath.Join(s.cfg.DataDir, "power.json")
	var rec powerEpochRecord
	err := persist.LoadJSON(path, powerEpochKind, powerEpochVersion, &rec)
	if err == nil && !rec.Epoch.IsZero() {
		return rec.Epoch, nil
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return time.Time{}, fmt.Errorf("serve: loading power epoch: %w", err)
	}
	rec.Epoch = s.started
	if err := persist.SaveJSON(path, powerEpochKind, powerEpochVersion, rec); err != nil {
		return time.Time{}, fmt.Errorf("serve: persisting power epoch: %w", err)
	}
	return rec.Epoch, nil
}

// powerLoop samples the envelope until shutdown, driving the worker
// gate, the preemptive guard, parked-run resubmission, and the power
// gauges.
func (s *Server) powerLoop(every time.Duration) {
	defer s.powerWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.powerTick(time.Now())
		case <-s.powerStop:
			return
		}
	}
}

// powerTick applies the envelope's state at one instant.
func (s *Server) powerTick(now time.Time) {
	st := s.power.State(now)
	limit := s.power.Limit(s.cfg.Workers, st)
	if s.power.ShouldPark(st) {
		// Guard tail: the window's predicted end is imminent. Stop
		// launching and drain running simulations to checkpoints so
		// nothing is killed mid-run when the power actually drops.
		limit = 0
		s.parkRunningForPower()
	}
	s.gate.setLimit(limit)
	open := 0.0
	if st.Open {
		open = 1
	}
	s.scope.Gauge("power_window_open").Set(open)
	s.scope.Gauge("power_window_frac").Set(st.Frac)
	s.scope.Gauge("power_worker_limit").Set(float64(limit))
	s.expireParked(now)
	if limit > 0 {
		s.resubmitParked()
	}
	s.scope.Gauge("power_parked").Set(float64(s.parked.Load()))
}

// parkRunningForPower preemptively interrupts running simulations with
// the power-park cause; their snapshots land via settleInterrupted.
// Experiments are left alone — they aggregate many runs with no single
// resumable snapshot, so killing one would discard work, which is
// exactly what graceful degradation exists to avoid.
func (s *Server) parkRunningForPower() {
	for _, r := range s.snapshotRuns() {
		if r.spec.Experiment != "" {
			continue
		}
		if r.interrupt(errPowerPark) {
			s.scope.Counter("power_preempted").Inc()
			r.log.Info("preempting run for power window end")
		}
	}
}

// expireParked fails parked runs whose deadline passed while waiting
// for power; outcomeOf maps the "deadline:" prefix to the deadline
// outcome.
func (s *Server) expireParked(now time.Time) {
	for _, r := range s.snapshotRuns() {
		r.mu.Lock()
		expired := r.state == StateParkedPower && !r.deadline.IsZero() && now.After(r.deadline)
		r.mu.Unlock()
		if expired {
			s.finish(r, StateFailed, "deadline: expired while parked for power", nil, nil)
		}
	}
}

// resubmitParked feeds parked runs back into the admission queue while
// a window is open. A full queue stops the pass — the rest retry next
// tick rather than blocking the power loop. Each run's queued record is
// journaled under r.mu, before its worker can start it.
func (s *Server) resubmitParked() {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return
	}
	for _, r := range s.snapshotRuns() {
		r.mu.Lock()
		if r.state != StateParkedPower {
			r.mu.Unlock()
			continue
		}
		select {
		case s.queue <- r:
			r.transition(s, StateQueued, time.Now())
			r.mu.Unlock()
			s.scope.Counter("power_resubmitted").Inc()
			r.log.Info("parked run resubmitted", "state", string(StateQueued))
		default:
			r.mu.Unlock()
			return
		}
	}
}

// powerAdmit applies renewable-aware admission to a validated,
// defaulted spec. When handled is true Submit returns (info, err)
// as-is: the submission was shed, parked, or rejected for a missing
// deadline. handled false means the run proceeds to the queue.
func (s *Server) powerAdmit(spec Spec, now time.Time) (handled bool, info RunInfo, err error) {
	if !s.power.Enabled() {
		return false, RunInfo{}, nil
	}
	deadline := time.Duration(spec.DeadlineSeconds * float64(time.Second))
	if deadline <= 0 && s.power.RequireDeadline() {
		s.scope.Counter("power_deadline_required").Inc()
		return true, RunInfo{}, ErrDeadlineRequired
	}
	cost := time.Duration(spec.CostHintSeconds * float64(time.Second))
	if cost <= 0 {
		if ewma := math.Float64frombits(s.execEWMA.Load()); ewma > 0 {
			cost = time.Duration(ewma * float64(time.Second))
		} else {
			cost = defaultCostEstimate
		}
	}
	wd := s.power.Decide(now, cost, deadline)
	if wd.Fit {
		s.scope.Counter("power_admit_ok").Inc()
		return false, RunInfo{}, nil
	}
	policy := s.power.Policy()
	if p, perr := admit.ParsePolicy(spec.PowerPolicy); perr == nil && p != admit.PolicyOff {
		policy = p
	}
	if policy == admit.PolicyPark {
		info, err := s.parkAtAdmission(spec, now, wd)
		return true, info, err
	}
	s.scope.Counter("power_admit_shed").Inc()
	s.scope.Counter("power_shed_reason_" + metricReason(wd.Reason)).Inc()
	s.scope.Histogram("power_retry_after_seconds", 0, 3600, 120).Observe(wd.RetryAfter.Seconds())
	s.log.Warn("run shed for power", "reason", wd.Reason, "retry_after", wd.RetryAfter.String(),
		"capacity_s", float64(wd.Capacity), "window_open", wd.WindowOpen)
	return true, RunInfo{}, &PowerShedError{Reason: wd.Reason, RetryAfter: wd.RetryAfter}
}

// metricReason makes an admit reason safe as a metric-name suffix.
func metricReason(reason string) string {
	return strings.ReplaceAll(reason, "-", "_")
}

// parkAtAdmission accepts a power-infeasible submission degraded: the
// run is admitted parked-for-power (durably, with a data dir) and
// resubmitted by the power loop when the window opens.
func (s *Server) parkAtAdmission(spec Spec, now time.Time, wd admit.WallDecision) (RunInfo, error) {
	r, _ := s.newRun(spec, now, false)
	info, err := s.admit(r, StateParkedPower, now)
	if err != nil {
		return RunInfo{}, err
	}
	s.scope.Counter("runs_submitted").Inc()
	s.scope.Counter("power_admit_park").Inc()
	r.log.Info("run parked for power", "state", string(StateParkedPower), "reason", wd.Reason,
		"retry_in", wd.RetryAfter.String(), "spec", describeSpec(spec))
	return info, nil
}

// park sets an interrupted run aside until it can resume — a power-
// guard preemption or a drain. With a data dir it saves snap to
// <data>/<id>.snapshot.json, in the envelope `zccsim -restore` reads;
// without one, or when the save fails, the snapshot stays in memory and
// the park does not outlive the process. The save and the trace-prefix
// commit happen before r.mu is taken (a long run's snapshot takes a good
// part of a second; /status and the power tick read every run's state);
// then the park is journaled with the checkpoint a restart resumes from.
// A client cancel that arrived meanwhile ends the run cancelled instead
// (parked false). It returns the run's checkpoint path.
func (s *Server) park(r *run, snap *sched.Snapshot, sink *tracebin.File, tracePath string) (checkpoint string, parked bool) {
	saved := ""
	if snap != nil && s.cfg.DataDir != "" {
		path := filepath.Join(s.cfg.DataDir, r.id+".snapshot.json")
		if err := sched.SaveSnapshot(path, snap); err != nil {
			r.log.Error("park: snapshot save failed; keeping it in memory", "err", err.Error())
		} else {
			saved = path
		}
	}
	traceErr := commitTrace(sink)
	if traceErr != nil {
		// The park is the payload; a lost trace prefix is a log line.
		r.log.Error("trace commit failed on park", "err", traceErr.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cancel = nil
	switch {
	case saved != "":
		r.checkpoint = saved
	case snap != nil:
		r.checkpoint, r.resumeSnap = "", snap
	}
	if sink != nil && traceErr == nil {
		r.trace = tracePath
	}
	if r.clientCancel {
		s.finishLocked(r, StateCancelled, errCancelled.Error(), nil, nil)
		return "", false
	}
	r.transition(s, StateParkedPower, time.Now())
	return r.checkpoint, true
}

// readoptRuns admits each run replayRuns found unfinished as parked-for-
// power again, to complete when the power window opens, or as soon as a
// queue slot frees without power admission. A run resumes from
// <data>/<id>.snapshot.json when its last record names a checkpoint and
// the file is still there (a run whose terminal record was lost re-runs
// its spec). Runs before the worker pool starts.
func (s *Server) readoptRuns(open []journalRecord) {
	for _, rec := range open {
		r := &run{id: rec.Run, spec: *rec.Spec, submitted: rec.Time}
		if rec.Deadline != nil {
			r.deadline = *rec.Deadline
		}
		if rec.Checkpoint != "" {
			path := filepath.Join(s.cfg.DataDir, r.id+".snapshot.json")
			if _, err := os.Stat(path); err == nil {
				r.checkpoint = path
			}
		}
		r.log = s.log.With("run_id", r.id)
		r.mu.Lock()
		if _, err := s.admit(r, StateParkedPower, time.Now()); err != nil {
			continue
		}
		s.scope.Counter("power_readopted").Inc()
		r.log.Info("parked run re-adopted", "state", string(StateParkedPower), "snapshot", r.checkpoint)
	}
	if !s.power.Enabled() {
		// No power loop will resubmit them: queue what fits now; each
		// worker queues more as it frees a slot.
		s.resubmitParked()
	}
}

// takeResume hands execute the snapshot a parked run should resume
// from: the in-memory one if the park could not persist, else the
// durable one loaded lazily. nil means run from the spec, as does a
// snapshot another build wrote in a format this one cannot read.
func (s *Server) takeResume(r *run) (*sched.Snapshot, error) {
	r.mu.Lock()
	snap, path := r.resumeSnap, r.checkpoint
	r.resumeSnap = nil
	r.mu.Unlock()
	if snap != nil {
		return snap, nil
	}
	if path == "" {
		return nil, nil
	}
	snap, err := sched.LoadSnapshot(path)
	if errors.Is(err, persist.ErrVersion) {
		r.log.Warn("park snapshot from another build; re-running from the spec", "err", err.Error())
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: loading park snapshot: %v", err)
	}
	return snap, nil
}

// powerStatusFor assembles the /status power block from the live
// envelope state and the counter snapshot. nil when power admission is
// off.
func (s *Server) powerStatusFor(ms obs.Snapshot) *obs.PowerStatus {
	if !s.power.Enabled() {
		return nil
	}
	pst := s.power.State(time.Now())
	ps := &obs.PowerStatus{
		Policy:      string(s.power.Policy()),
		WindowOpen:  pst.Open,
		Frac:        pst.Frac,
		WorkerLimit: s.power.Limit(s.cfg.Workers, pst),
		Parked:      int(s.parked.Load()),
		Exhausted:   pst.Exhausted,
		Admitted:    ms.Counter("serve.power_admit_ok"),
		Shed:        ms.Counter("serve.power_admit_shed"),
		ParkedTotal: ms.Counter("serve.power_admit_park") + ms.Counter("serve.power_parked_midrun"),
		Resubmitted: ms.Counter("serve.power_resubmitted"),
		Preempted:   ms.Counter("serve.power_preempted"),
	}
	if pst.Open {
		ps.NextChangeSec = pst.UntilEnd.Seconds()
	} else {
		ps.NextChangeSec = pst.UntilOpen.Seconds()
	}
	for name, v := range ms.Counters {
		if reason, ok := strings.CutPrefix(name, "serve.power_shed_reason_"); ok {
			if ps.Reasons == nil {
				ps.Reasons = make(map[string]int64)
			}
			ps.Reasons[reason] = v
		}
	}
	return ps
}

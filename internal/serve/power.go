package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"zccloud/internal/admit"
	"zccloud/internal/core"
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
// settleInterrupted maps it to the parked-for-power state.
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

// Parked-run durability: each parked-for-power run writes
// <data>/parked/<id>.json (and, for a mid-run park, a snapshot next to
// it) so a crashed or restarted zccd re-adopts it and still completes
// it when the window opens.
const (
	parkedFileKind    = "zccd-parked-run"
	parkedFileVersion = 1
	powerEpochKind    = "zccd-power-epoch"
	powerEpochVersion = 1
)

// parkedRecord is the durable form of a parked-for-power run.
type parkedRecord struct {
	ID        string    `json:"id"`
	Spec      Spec      `json:"spec"`
	Submitted time.Time `json:"submitted"`
	// Deadline is the wall instant the run expires (zero = none).
	Deadline time.Time `json:"deadline"`
	// Snapshot is the mid-run checkpoint to resume from (empty = the
	// run never started; it re-runs from the spec).
	Snapshot string `json:"snapshot,omitempty"`
}

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
	s.scope.Gauge("power_parked").Set(float64(s.countParked()))
}

// snapshotRuns copies the run table (submission order) for lock-free
// iteration.
func (s *Server) snapshotRuns() []*run {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	return runs
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
			s.finish(r, StateFailed, "deadline: expired while parked for power", "", nil, nil)
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
			r.state = StateQueued
			s.journal.append(journalRecord{Time: time.Now(), Run: r.id, Name: r.spec.Name, State: StateQueued}, r.id, string(StateQueued))
			r.mu.Unlock()
			s.scope.Counter("power_resubmitted").Inc()
			r.log.Info("parked run resubmitted", "state", string(StateQueued))
		default:
			r.mu.Unlock()
			return
		}
	}
}

// countParked counts runs currently parked for power.
func (s *Server) countParked() int {
	n := 0
	for _, r := range s.snapshotRuns() {
		if r.currentState() == StateParkedPower {
			n++
		}
	}
	return n
}

// finalizeParked settles still-parked runs at drain: a run with a
// durable snapshot becomes checkpointed (its parked record stays on
// disk, so a successor server re-adopts and completes it), the rest
// are cancelled.
func (s *Server) finalizeParked() {
	for _, r := range s.snapshotRuns() {
		r.mu.Lock()
		parked := r.state == StateParkedPower
		snapPath := r.snapPath
		r.mu.Unlock()
		if !parked {
			continue
		}
		if snapPath != "" {
			s.finish(r, StateCheckpointed, "", snapPath, nil, nil)
		} else {
			s.finish(r, StateCancelled, "cancelled: server draining while parked for power", "", nil, nil)
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
		return true, s.parkAtAdmission(spec, now, deadline, wd), nil
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
// run is registered parked-for-power (durably, with a data dir) and
// resubmitted by the power loop when the window opens.
func (s *Server) parkAtAdmission(spec Spec, now time.Time, deadline time.Duration, wd admit.WallDecision) RunInfo {
	r := &run{spec: spec, state: StateParkedPower, submitted: now}
	if deadline > 0 {
		r.deadline = now.Add(deadline)
	}
	// Held until the parked record is journaled, so a concurrent Cancel
	// or resubmission journals after it.
	r.mu.Lock()
	s.mu.Lock()
	s.nextID++
	r.id = fmt.Sprintf("r-%06d", s.nextID)
	r.log = s.log.With("run_id", r.id)
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.mu.Unlock()
	r.parkedPath = s.persistParked(parkedRecord{ID: r.id, Spec: spec, Submitted: now, Deadline: r.deadline}, r.log)
	s.journal.append(journalRecord{Time: now, Run: r.id, Name: spec.Name, State: StateParkedPower}, r.id, string(StateParkedPower))
	info := r.infoLocked()
	r.mu.Unlock()
	s.scope.Counter("runs_submitted").Inc()
	s.scope.Counter("power_admit_park").Inc()
	r.log.Info("run parked for power", "state", string(StateParkedPower), "reason", wd.Reason,
		"retry_in", wd.RetryAfter.String(), "spec", describeSpec(spec))
	return info
}

// parkInterrupted settles a power-preempted run: its snapshot is saved
// next to the parked record (kept in memory without a data dir), the
// trace prefix commits, and the run transitions to parked-for-power to
// resume when the window reopens.
func (s *Server) parkInterrupted(r *run, intr *core.Interrupted, sink tracebin.Sink, tracePath string) {
	var snap *sched.Snapshot
	if intr != nil {
		snap = intr.Snapshot
	}
	var snapPath string
	if snap != nil && s.cfg.DataDir != "" {
		dir := filepath.Join(s.cfg.DataDir, "parked")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			r.log.Error("power park: parked dir", "err", err.Error())
		} else {
			p := filepath.Join(dir, r.id+".snapshot.json")
			if err := persist.SaveJSON(p, snapshotFileKind, sched.SnapshotVersion, snap); err != nil {
				r.log.Error("power park: snapshot save failed; keeping it in memory", "err", err.Error())
			} else {
				snapPath = p
			}
		}
	}
	if err := s.commitTrace(r, sink, tracePath); err != nil {
		// The park is the payload; a lost trace prefix is a log line.
		r.log.Error("trace commit failed on power park", "err", err.Error())
	}
	now := time.Now()
	r.mu.Lock()
	if r.state.Terminal() {
		r.mu.Unlock()
		return
	}
	r.state = StateParkedPower
	r.snapPath = snapPath
	r.resumeSnap = nil
	if snapPath == "" {
		r.resumeSnap = snap
	}
	r.cancel = nil
	prec := parkedRecord{ID: r.id, Spec: r.spec, Submitted: r.submitted, Deadline: r.deadline, Snapshot: snapPath}
	if p := s.persistParked(prec, r.log); p != "" {
		r.parkedPath = p
	}
	s.journal.append(journalRecord{Time: now, Run: r.id, Name: r.spec.Name, State: StateParkedPower, Checkpoint: snapPath},
		r.id, string(StateParkedPower))
	r.mu.Unlock()
	s.scope.Counter("power_parked_midrun").Inc()
	r.log.Info("run parked for power", "state", string(StateParkedPower), "checkpoint", snapPath)
}

// persistParked writes a parked record (advisory: without a data dir,
// or on a sick disk, the park is memory-only and a restart loses it —
// the same durability contract as drain checkpoints).
func (s *Server) persistParked(rec parkedRecord, rl *obs.Logger) string {
	if s.cfg.DataDir == "" {
		return ""
	}
	dir := filepath.Join(s.cfg.DataDir, "parked")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		rl.Error("parked record dir", "err", err.Error())
		return ""
	}
	path := filepath.Join(dir, rec.ID+".json")
	if err := persist.SaveJSON(path, parkedFileKind, parkedFileVersion, rec); err != nil {
		rl.Error("parked record save failed", "err", err.Error())
		return ""
	}
	return path
}

// runSeq extracts the numeric suffix of an "r-%06d" run id.
func runSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "r-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// readoptParked re-adopts parked-for-power runs a previous incarnation
// left in <data>/parked/: each becomes a parked run again (resuming
// from its snapshot when it has one) and completes when the power
// window opens. Runs before the worker pool starts.
func (s *Server) readoptParked() {
	if s.cfg.DataDir == "" {
		return
	}
	dir := filepath.Join(s.cfg.DataDir, "parked")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return // nothing parked
	}
	adopted := 0
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".snapshot.json") {
			continue
		}
		path := filepath.Join(dir, name)
		var rec parkedRecord
		if err := persist.LoadJSON(path, parkedFileKind, parkedFileVersion, &rec); err != nil {
			s.log.Error("parked record unreadable; skipping", "path", path, "err", err.Error())
			continue
		}
		if rec.ID == "" {
			continue
		}
		r := &run{id: rec.ID, spec: rec.Spec, state: StateParkedPower,
			submitted: rec.Submitted, deadline: rec.Deadline,
			snapPath: rec.Snapshot, parkedPath: path}
		r.log = s.log.With("run_id", r.id)
		r.mu.Lock() // until the re-adoption is journaled
		s.mu.Lock()
		if _, dup := s.runs[r.id]; dup {
			s.mu.Unlock()
			r.mu.Unlock()
			continue
		}
		s.runs[r.id] = r
		s.order = append(s.order, r.id)
		if n, ok := runSeq(r.id); ok && n > s.nextID {
			s.nextID = n
		}
		s.mu.Unlock()
		s.journal.append(journalRecord{Time: time.Now(), Run: r.id, Name: r.spec.Name,
			State: StateParkedPower, Checkpoint: rec.Snapshot}, r.id, string(StateParkedPower))
		r.mu.Unlock()
		adopted++
		s.scope.Counter("power_readopted").Inc()
		r.log.Info("parked run re-adopted", "state", string(StateParkedPower), "snapshot", rec.Snapshot)
	}
	if adopted > 0 && !s.power.Enabled() {
		// No power loop will ever resubmit them: queue them now. (More
		// parked runs than queue depth leaves the overflow parked; with
		// power admission off nothing else will move them, so say so.)
		s.resubmitParked()
		if n := s.countParked(); n > 0 {
			s.log.Warn("parked runs exceed queue depth and power admission is off", "stuck", n)
		}
	}
}

// takeResume hands execute the snapshot a parked run should resume
// from: the in-memory one if the park could not persist, else the
// durable one loaded lazily. nil means run from the spec.
func (s *Server) takeResume(r *run) (*sched.Snapshot, error) {
	r.mu.Lock()
	snap, path := r.resumeSnap, r.snapPath
	r.resumeSnap = nil
	r.mu.Unlock()
	if snap != nil {
		return snap, nil
	}
	if path == "" {
		return nil, nil
	}
	var out sched.Snapshot
	if err := persist.LoadJSON(path, snapshotFileKind, sched.SnapshotVersion, &out); err != nil {
		return nil, fmt.Errorf("serve: loading park snapshot: %v", err)
	}
	return &out, nil
}

// removeQuiet deletes a best-effort artifact; a failure is harmless
// (re-adoption of a terminal run is caught by the duplicate-id check).
func removeQuiet(path string) {
	if path != "" {
		os.Remove(path)
	}
}

// powerStatusFor assembles the /status power block from the live
// envelope state and the counter snapshot. nil when power admission is
// off.
func (s *Server) powerStatusFor(ms obs.Snapshot, parked int) *obs.PowerStatus {
	if !s.power.Enabled() {
		return nil
	}
	pst := s.power.State(time.Now())
	ps := &obs.PowerStatus{
		Policy:      string(s.power.Policy()),
		WindowOpen:  pst.Open,
		Frac:        pst.Frac,
		WorkerLimit: s.power.Limit(s.cfg.Workers, pst),
		Parked:      parked,
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

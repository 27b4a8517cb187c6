// Package serve implements the zccd simulation service: an HTTP API
// over a bounded admission queue and a fixed worker pool that executes
// simulation and experiment specs (internal/core, internal/experiments)
// with per-run deadlines, panic isolation, cancellation, and a graceful
// drain that checkpoints in-flight simulations through the
// snapshot/restore path.
//
// Design rules, in order:
//
//   - Admission is load-shed, never queued unboundedly: a full queue
//     rejects immediately (HTTP 429 + Retry-After) so the caller — not
//     this process's memory — holds the backlog.
//   - Every accepted run reaches exactly one terminal state (done,
//     failed, cancelled, checkpointed), no matter what: a panicking run
//     is journaled as failed and its worker survives; a drained run is
//     parked as a resumable snapshot.
//   - The run journal is an audit trail behind a circuit breaker, not a
//     lock on progress: a sick disk drops journal lines (counted), it
//     does not stall simulations.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zccloud/internal/admit"
	"zccloud/internal/core"
	"zccloud/internal/experiments"
	"zccloud/internal/fleet"
	"zccloud/internal/obs"
	"zccloud/internal/persist"
	"zccloud/internal/sched"
	"zccloud/internal/tracebin"
)

// Admission and lookup errors; the HTTP layer maps these to statuses.
var (
	ErrQueueFull = errors.New("serve: admission queue full")
	ErrDraining  = errors.New("serve: server is draining")
	ErrNotFound  = errors.New("serve: no such run")
	ErrTerminal  = errors.New("serve: run already in a terminal state")
)

// Cancellation causes: the worker reads the context cause to decide
// whether an interrupted run is discarded, failed, or checkpointed.
var (
	errCancelled       = errors.New("cancelled by client")
	errDrainCheckpoint = errors.New("server draining")
	errRunDeadline     = errors.New("run deadline exceeded")
)

// snapshotFileKind matches the envelope kind zccsim writes, so a
// checkpoint parked by a draining zccd resumes with `zccsim -restore`.
const snapshotFileKind = "zccloud-snapshot"

// drainHardWait bounds the post-interrupt wait for workers during
// drain. Interrupted schedulers stop within one event stride and a
// snapshot save is milliseconds, so hitting this means a worker wedged.
const drainHardWait = 30 * time.Second

// Config sizes the server. The zero value is usable: 2 workers, a
// 16-deep queue, 10-minute run deadline, no persistence.
type Config struct {
	// Workers is the number of concurrent run executors.
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// shed with ErrQueueFull.
	QueueDepth int
	// RunTimeout is the default per-run wall-clock deadline; a spec's
	// timeout_seconds may tighten but never exceed it. Zero means ten
	// minutes; negative means no deadline.
	RunTimeout time.Duration
	// DataDir, when set, holds the runs.jsonl journal and drain
	// checkpoints. Empty disables persistence (checkpoint-less drain
	// cancels in-flight runs instead).
	DataDir string
	// Log receives structured operational log lines; nil discards them
	// at zero cost. Every line about a specific run carries its run_id.
	Log *obs.Logger
	// Metrics receives server metrics under the "serve" scope; nil
	// creates a private registry (see Registry).
	Metrics *obs.Registry
	// SampleInterval is the period of the /v1/timeseries sampler; zero
	// means one second.
	SampleInterval time.Duration
	// SampleWindow is how many samples /v1/timeseries retains; zero
	// means 600 (ten minutes at the default interval).
	SampleWindow int

	// Fleet sizes the distributed-sweep control plane (lease TTLs, reap
	// thresholds, requeue backoff). The zero value uses fleet defaults.
	Fleet fleet.Config

	// Power configures renewable-aware admission control: submissions
	// are checked against the forecasted stranded-power envelope, the
	// worker pool follows it (shrinking on brownout, pausing while the
	// window is closed), and infeasible work is shed or parked per the
	// policy. A nil Envelope (or an off policy) disables all of it. A
	// zero Clock.Epoch is pinned durably under DataDir (power.json), so
	// a restart replays the schedule in phase.
	Power admit.Config
	// PowerTick is the power envelope sampling period; zero means
	// 250ms.
	PowerTick time.Duration
}

// Lifecycle histogram shapes, in seconds. Uniform buckets; the ranges
// are sized so typical values land mid-range and the interpolated
// /status percentiles stay meaningful (out-of-range mass clamps to the
// observed extremes).
const (
	admissionHistHi = 1.0   // Submit critical section: contention only
	queueHistHi     = 300.0 // queue wait: whole simulations deep
	execHistHi      = 600.0 // execution: default run deadline
	parkHistHi      = 30.0  // interrupt → terminal: drain settle time
	lifecycleBuck   = 120
)

// Server owns the queue, the worker pool, and the run table.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	scope   obs.Scope
	log     *obs.Logger
	ts      *obs.TimeSeries
	started time.Time
	reqSeq  atomic.Int64

	// admitMu serializes Submit's queue send against Drain's queue
	// close: Drain takes the write side, so no sender can be mid-send
	// when the channel closes.
	admitMu  sync.RWMutex
	queue    chan *run
	draining atomic.Bool

	mu     sync.Mutex
	runs   map[string]*run
	order  []string
	nextID int

	wg      sync.WaitGroup
	journal *journalSink
	jfile   *persist.Journal

	// Sweep registry journal (<data>/sweeps/registry.jsonl): sweep
	// registrations, done/dropped markers, and token epochs — what a
	// restart replays to re-adopt open sweeps with pre-crash leases
	// fenced.
	registry *journalSink
	regFile  *persist.Journal

	// Distributed-sweep control plane: the lease/registry controller,
	// its reap loop, and the open sweep journals.
	fleet         *fleet.Controller
	fleetStop     chan struct{}
	fleetWG       sync.WaitGroup
	sweepMu       sync.Mutex
	sweepJournals map[string]*sweepJournal
	sweepDone     map[string]bool // done-marked in the registry
	nextSweep     int
	idem          *idemCache

	// execEWMA holds the float64 bits of an exponentially weighted
	// moving average of run execution seconds; the 429 Retry-After hint
	// derives the admission drain rate from it (and power admission
	// uses it as the default cost estimate).
	execEWMA atomic.Uint64
	retryMu  sync.Mutex
	retryRng *rand.Rand

	// Renewable-aware admission: the power controller (nil = off), the
	// launch gate the power loop throttles, and the loop's lifecycle.
	power     *admit.Controller
	gate      *workGate
	powerStop chan struct{}
	powerWG   sync.WaitGroup

	drainOnce sync.Once
	drainErr  error

	// execHook, when set (tests only), replaces the simulation body of
	// execute so tests can block, panic, or fail a run deterministically.
	execHook func(ctx context.Context, sp Spec) (*core.Metrics, error)
}

// New validates the config, opens the journal, and starts the worker
// pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.RunTimeout == 0 {
		cfg.RunTimeout = 10 * time.Minute
	}
	if cfg.Workers < 0 || cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: workers %d / queue depth %d must be positive", cfg.Workers, cfg.QueueDepth)
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = time.Second
	}
	if cfg.SampleWindow == 0 {
		cfg.SampleWindow = 600
	}
	if cfg.PowerTick == 0 {
		cfg.PowerTick = 250 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:           cfg,
		reg:           reg,
		scope:         reg.Scope("serve"),
		log:           cfg.Log,
		started:       time.Now(),
		queue:         make(chan *run, cfg.QueueDepth),
		runs:          make(map[string]*run),
		fleetStop:     make(chan struct{}),
		powerStop:     make(chan struct{}),
		sweepJournals: make(map[string]*sweepJournal),
		sweepDone:     make(map[string]bool),
		idem:          newIdemCache(idemCacheCap),
		retryRng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	// Pre-register the lifecycle histograms so /metrics serves the full
	// schema from the first scrape rather than only after each stage has
	// been observed once (scrapers hate appearing-later series).
	s.scope.Histogram("admission_wait_seconds", 0, admissionHistHi, lifecycleBuck)
	s.scope.Histogram("queue_wait_seconds", 0, queueHistHi, lifecycleBuck)
	s.scope.Histogram("exec_seconds", 0, execHistHi, lifecycleBuck)
	s.scope.Histogram("park_seconds", 0, parkHistHi, lifecycleBuck)
	fc := cfg.Fleet
	fc.Log = cfg.Log
	fc.Metrics = reg
	var app, regApp appender
	var reopen []registryRecord
	if cfg.DataDir != "" {
		if err := os.MkdirAll(filepath.Join(cfg.DataDir, "sweeps"), 0o755); err != nil {
			return nil, fmt.Errorf("serve: data dir: %w", err)
		}
		j, err := persist.OpenJournal(filepath.Join(cfg.DataDir, "runs.jsonl"))
		if err != nil {
			return nil, fmt.Errorf("serve: opening run journal: %w", err)
		}
		s.jfile = j
		app = j
		// Replay the sweep registry before the fleet controller exists:
		// the replayed epoch becomes the controller's token floor, so
		// every lease token a previous incarnation granted is fenced.
		regPath := filepath.Join(cfg.DataDir, "sweeps", "registry.jsonl")
		rp, err := replayRegistry(regPath)
		if err != nil {
			return nil, err
		}
		rj, err := persist.OpenJournal(regPath)
		if err != nil {
			return nil, fmt.Errorf("serve: opening sweep registry: %w", err)
		}
		s.regFile = rj
		regApp = rj
		s.nextSweep = rp.nextSeq
		reopen = rp.open
		fc.TokenFloor = rp.epoch
		fc.PersistEpoch = s.persistEpoch
	}
	s.fleet = fleet.New(fc)
	s.journal = newJournalSink("run_id", app, s.log, s.scope)
	s.registry = newJournalSink("run_id", regApp, s.log, s.scope)
	s.readoptSweeps(reopen)
	// Power admission boots before the workers: the gate must reflect
	// the envelope (a server starting into a closed window launches
	// nothing) and parked runs must be re-adopted before anything can
	// collide with their ids.
	if err := s.initPower(); err != nil {
		return nil, err
	}
	s.readoptParked()
	s.ts = obs.NewTimeSeries(cfg.SampleInterval, cfg.SampleWindow, s.sampleTelemetry)
	s.ts.Start()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.power.Enabled() {
		s.powerWG.Add(1)
		go s.powerLoop(cfg.PowerTick)
	}
	// The reap loop ticks several times per TTL so a dead agent or
	// expired lease is noticed well before the next one accrues.
	tick := s.fleet.LeaseTTL()
	if hb := s.fleet.HeartbeatEvery(); hb < tick {
		tick = hb
	}
	if tick /= 2; tick < 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	s.fleetWG.Add(1)
	go s.fleetLoop(tick)
	return s, nil
}

// Registry returns the server's metrics registry (the configured one,
// or the private registry New created).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Draining reports whether the server has stopped admitting runs.
func (s *Server) Draining() bool { return s.draining.Load() }

// JournalDropped returns how many journal records were lost to sink
// failures (retries exhausted or breaker open).
func (s *Server) JournalDropped() int64 { return s.journal.droppedCount() }

// Submit validates and enqueues a spec. A draining server refuses with
// ErrDraining; a full queue sheds with ErrQueueFull — the run is not
// registered, so a shed submission leaves no trace beyond a counter.
func (s *Server) Submit(spec Spec) (RunInfo, error) {
	admitStart := time.Now()
	if err := spec.Validate(); err != nil {
		s.scope.Counter("submit_invalid").Inc()
		return RunInfo{}, err
	}
	spec = spec.withDefaults()

	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return RunInfo{}, ErrDraining
	}
	// Renewable-aware admission: can this run's estimated cost fit
	// inside forecasted stranded-power capacity before its deadline?
	// Infeasible work is shed (PowerShedError → 429 with a
	// window-derived Retry-After) or parked durably per the policy.
	if handled, info, err := s.powerAdmit(spec, time.Now()); handled {
		return info, err
	}
	r := &run{spec: spec, state: StateQueued, submitted: time.Now()}
	if d := time.Duration(spec.DeadlineSeconds * float64(time.Second)); d > 0 {
		r.deadline = r.submitted.Add(d)
	}
	s.mu.Lock()
	s.nextID++
	r.id = fmt.Sprintf("r-%06d", s.nextID)
	s.mu.Unlock()
	r.log = s.log.With("run_id", r.id)

	// r.mu is held from publication until the queued record is
	// journaled: a worker's start and a client's Cancel both take r.mu,
	// so their records always land after this one.
	r.mu.Lock()
	select {
	case s.queue <- r:
	default:
		r.mu.Unlock()
		s.scope.Counter("runs_shed").Inc()
		s.scope.Counter("outcome_shed").Inc()
		r.log.Warn("run shed", "state", "shed", "queue_depth", s.cfg.QueueDepth)
		return RunInfo{}, ErrQueueFull
	}
	s.mu.Lock()
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.mu.Unlock()
	s.journal.append(journalRecord{Time: time.Now(), Run: r.id, Name: spec.Name, State: StateQueued}, r.id, string(StateQueued))
	info := r.infoLocked()
	r.mu.Unlock()
	s.scope.Counter("runs_submitted").Inc()
	s.scope.Gauge("queue_high_water").SetMax(float64(len(s.queue)))
	admissionWait := time.Since(admitStart).Seconds()
	s.scope.Histogram("admission_wait_seconds", 0, admissionHistHi, lifecycleBuck).Observe(admissionWait)
	r.log.Info("run admitted", "state", string(StateQueued), "spec", describeSpec(spec),
		"queue_len", len(s.queue), "admission_wait_s", admissionWait)
	return info, nil
}

// Get returns a run's current view.
func (s *Server) Get(id string) (RunInfo, bool) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return RunInfo{}, false
	}
	return r.info(), true
}

// List returns every registered run in submission order.
func (s *Server) List() []RunInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	runs := make([]*run, 0, len(ids))
	for _, id := range ids {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	out := make([]RunInfo, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.info())
	}
	return out
}

// Cancel stops a run: a queued run is finalized as cancelled on the
// spot (its worker will skip it), a running run gets its context
// cancelled and settles asynchronously. Cancelling a terminal run
// returns ErrTerminal with the final state.
func (s *Server) Cancel(id string) (RunInfo, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return RunInfo{}, ErrNotFound
	}
	r.mu.Lock()
	switch {
	case r.state.Terminal():
		r.mu.Unlock()
		return r.info(), ErrTerminal
	case r.state == StateQueued, r.state == StateParkedPower:
		rec := r.finishLocked(StateCancelled, "cancelled by client", "", nil, nil, time.Now())
		s.recordFinish(rec, lifecycleTimes{execSec: -1, parkSec: -1}, r.log)
		removeQuiet(r.parkedPath)
		removeQuiet(r.snapPath)
		r.mu.Unlock()
	default:
		if r.interruptedAt.IsZero() {
			r.interruptedAt = time.Now()
		}
		r.cancel(errCancelled)
		r.mu.Unlock()
	}
	return r.info(), nil
}

// worker executes queued runs until the queue is closed by Drain.
// During drain, still-queued runs are finalized as cancelled instead of
// executed. Each launch first acquires a power-gate slot: the power
// loop moves the gate's limit with the stranded-power envelope, so
// workers idle (holding their queued run) while the window is closed
// and a brownout shrinks effective concurrency without killing
// anything already running.
func (s *Server) worker() {
	defer s.wg.Done()
	for r := range s.queue {
		if s.draining.Load() {
			s.finishDrained(r)
			continue
		}
		if !s.gate.acquire() {
			// Gate closed: the server is shutting down.
			s.finishDrained(r)
			continue
		}
		s.execute(r)
		s.gate.release()
	}
}

// finishDrained settles a queued run the drain overtook: one with a
// resumable snapshot parks as a checkpoint (a successor server
// re-adopts it), the rest cancel.
func (s *Server) finishDrained(r *run) {
	r.mu.Lock()
	snapPath := r.snapPath
	r.mu.Unlock()
	if snapPath != "" {
		s.finish(r, StateCheckpointed, "", snapPath, nil, nil)
		return
	}
	s.finish(r, StateCancelled, "cancelled: server draining", "", nil, nil)
}

// execute runs one spec under panic isolation, a cancellable context,
// and the run deadline.
func (s *Server) execute(r *run) {
	defer func() {
		if p := recover(); p != nil {
			s.scope.Counter("run_panics").Inc()
			r.log.Error("run panicked", "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			s.finish(r, StateFailed, fmt.Sprintf("panic: %v", p), "", nil, nil)
		}
	}()

	base, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ctx := context.Context(base)
	timeout := s.cfg.RunTimeout
	if t := time.Duration(r.spec.TimeoutSeconds * float64(time.Second)); t > 0 && (timeout <= 0 || t < timeout) {
		timeout = t
	}
	if timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeoutCause(ctx, timeout, errRunDeadline)
		defer cancelT()
	}

	if !r.start(time.Now(), cancel) {
		return // cancelled while queued
	}
	queueWait := r.started.Sub(r.submitted).Seconds()
	s.scope.Histogram("queue_wait_seconds", 0, queueHistHi, lifecycleBuck).Observe(queueWait)
	s.journal.append(journalRecord{Time: time.Now(), Run: r.id, Name: r.spec.Name, State: StateRunning}, r.id, string(StateRunning))
	r.log.Info("run started", "state", string(StateRunning), "spec", describeSpec(r.spec),
		"queue_wait_s", queueWait)

	if r.spec.Experiment != "" {
		s.executeExperiment(ctx, r)
		return
	}
	var m *core.Metrics
	var err error
	var sink tracebin.Sink
	var tracePath string
	if s.execHook != nil {
		m, err = s.execHook(ctx, r.spec)
	} else {
		o := obs.Options{Log: s.log, RunID: r.id}
		if r.spec.Trace != "" {
			sink, tracePath, err = s.openTraceSink(r)
			if err != nil {
				s.finish(r, StateFailed, err.Error(), "", nil, nil)
				return
			}
			// Abort is a no-op after Commit, so the deferred call only
			// discards traces of runs that did not land.
			defer sink.Abort()
			o.Tracer = sink
		}
		var snap *sched.Snapshot
		snap, err = s.takeResume(r)
		if err != nil {
			s.finish(r, StateFailed, err.Error(), "", nil, nil)
			return
		}
		if snap != nil {
			// A power-parked run resumes from its checkpoint: the
			// snapshot carries job state, so only the system config is
			// rebuilt.
			m, err = core.ResumeContext(ctx, core.RunConfig{System: r.spec.systemConfig(), Obs: o}, snap)
		} else {
			var cfg core.RunConfig
			cfg, err = r.spec.runConfig(o)
			if err != nil {
				s.finish(r, StateFailed, err.Error(), "", nil, nil)
				return
			}
			m, err = core.RunContext(ctx, cfg)
		}
	}
	if err == nil {
		if err := s.commitTrace(r, sink, tracePath); err != nil {
			s.finish(r, StateFailed, err.Error(), "", nil, nil)
			return
		}
		s.finish(r, StateDone, "", "", m, nil)
		return
	}
	var intr *core.Interrupted
	if errors.As(err, &intr) {
		s.settleInterrupted(ctx, r, intr, sink, tracePath)
		return
	}
	s.finish(r, StateFailed, err.Error(), "", nil, nil)
}

// openTraceSink creates the event-trace sink a Spec.Trace run writes
// into, under <data>/traces. The sink stages into a temp file; Commit
// renames it into place, Abort discards it.
func (s *Server) openTraceSink(r *run) (tracebin.Sink, string, error) {
	if s.cfg.DataDir == "" {
		return nil, "", errors.New("serve: spec requests a trace but the server has no data dir")
	}
	dir := filepath.Join(s.cfg.DataDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", fmt.Errorf("serve: creating trace dir: %v", err)
	}
	path := filepath.Join(dir, r.spec.Trace)
	sink, err := tracebin.CreateSink(path)
	if err != nil {
		return nil, "", fmt.Errorf("serve: creating trace: %v", err)
	}
	return sink, path, nil
}

// commitTrace lands a run's trace atomically and records its path so
// info() can echo it. A nil sink is a no-op.
func (s *Server) commitTrace(r *run, sink tracebin.Sink, path string) error {
	if sink == nil {
		return nil
	}
	if err := sink.Commit(); err != nil {
		return fmt.Errorf("serve: committing trace: %v", err)
	}
	r.mu.Lock()
	r.trace = path
	r.mu.Unlock()
	return nil
}

// settleInterrupted maps an interrupted simulation to its terminal
// state from the context cause: a deadline fails it, a drain parks it
// as a checkpoint (when there is a data dir to park it in), and a
// client cancel discards it. A checkpointed run commits its trace too —
// the prefix written so far is a valid trace of the work done before
// the park, and resuming appends a fresh file anyway.
func (s *Server) settleInterrupted(ctx context.Context, r *run, intr *core.Interrupted, sink tracebin.Sink, tracePath string) {
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, errRunDeadline):
		s.finish(r, StateFailed, errRunDeadline.Error(), "", nil, nil)
	case errors.Is(cause, errPowerPark):
		// Preemptive power drain: the window's predicted end is near.
		// The run parks (not terminal) and resumes when it reopens.
		s.parkInterrupted(r, intr, sink, tracePath)
	case errors.Is(cause, errDrainCheckpoint) && s.cfg.DataDir != "" && intr.Snapshot != nil:
		path := filepath.Join(s.cfg.DataDir, r.id+".snapshot.json")
		if err := persist.SaveJSON(path, snapshotFileKind, sched.SnapshotVersion, intr.Snapshot); err != nil {
			s.finish(r, StateFailed, fmt.Sprintf("draining: checkpoint save failed: %v", err), "", nil, nil)
			return
		}
		if err := s.commitTrace(r, sink, tracePath); err != nil {
			// The snapshot is the payload here; a lost trace prefix is
			// worth a log line, not a failed park.
			r.log.Error("trace commit failed on checkpoint", "err", err.Error())
		}
		s.finish(r, StateCheckpointed, "", path, nil, nil)
	case errors.Is(cause, errDrainCheckpoint):
		s.finish(r, StateCancelled, "cancelled: server draining (no data dir to checkpoint into)", "", nil, nil)
	default:
		s.finish(r, StateCancelled, errCancelled.Error(), "", nil, nil)
	}
}

// executeExperiment runs a paper artifact. Experiments are multi-run
// aggregates with no single resumable snapshot, so drain cancels them
// rather than checkpointing.
func (s *Server) executeExperiment(ctx context.Context, r *run) {
	e, err := experiments.ByID(r.spec.Experiment)
	if err != nil {
		s.finish(r, StateFailed, err.Error(), "", nil, nil)
		return
	}
	opt := experiments.Options{Seed: r.spec.Seed}
	if !r.spec.Full {
		opt = experiments.Quick(r.spec.Seed)
	}
	lab := experiments.NewLab(opt)
	lab.SetObs(obs.Options{
		Interrupt: func() bool { return ctx.Err() != nil },
		Log:       s.log,
		RunID:     r.id,
	})
	tbl, err := e.Run(lab)
	if err == nil {
		s.finish(r, StateDone, "", "", nil, tbl)
		return
	}
	if ctx.Err() != nil {
		cause := context.Cause(ctx)
		switch {
		case errors.Is(cause, errRunDeadline):
			s.finish(r, StateFailed, errRunDeadline.Error(), "", nil, nil)
		case errors.Is(cause, errDrainCheckpoint):
			s.finish(r, StateCancelled, "cancelled: server draining", "", nil, nil)
		default:
			s.finish(r, StateCancelled, errCancelled.Error(), "", nil, nil)
		}
		return
	}
	s.finish(r, StateFailed, err.Error(), "", nil, nil)
}

// finishLocked transitions the run to a terminal state; r.mu must be
// held. It returns the journal record describing the transition.
func (r *run) finishLocked(st State, errMsg, checkpoint string, m *core.Metrics, tbl *experiments.Table, now time.Time) journalRecord {
	r.state = st
	r.err = errMsg
	r.checkpoint = checkpoint
	r.metrics = m
	r.table = tbl
	r.finished = now
	return journalRecord{Time: now, Run: r.id, Name: r.spec.Name, State: st, Error: errMsg, Checkpoint: checkpoint}
}

// lifecycleTimes captures the durations a terminal transition closes
// out.
type lifecycleTimes struct {
	execSec float64 // started → finished; < 0 if the run never started
	parkSec float64 // interrupt → finished; < 0 if never interrupted
}

// finish finalizes a run unless it already reached a terminal state.
// The terminal record is journaled and the park artifacts removed under
// r.mu, so a client that observes the terminal state finds it durable
// and the artifacts gone.
func (s *Server) finish(r *run, st State, errMsg, checkpoint string, m *core.Metrics, tbl *experiments.Table) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.Terminal() {
		return
	}
	rec := r.finishLocked(st, errMsg, checkpoint, m, tbl, time.Now())
	lt := lifecycleTimes{execSec: -1, parkSec: -1}
	if !r.started.IsZero() {
		lt.execSec = r.finished.Sub(r.started).Seconds()
	}
	if !r.interruptedAt.IsZero() {
		lt.parkSec = r.finished.Sub(r.interruptedAt).Seconds()
	}
	s.recordFinish(rec, lt, r.log)
	if st != StateCheckpointed {
		// Parked-for-power artifacts outlive only non-terminal states
		// (and checkpointed, which a successor server re-adopts).
		removeQuiet(r.parkedPath)
		removeQuiet(r.snapPath)
	}
}

// outcomeOf maps a terminal transition to its lifecycle outcome label:
// ok, canceled, deadline, panic, error, or parked. (Shed submissions
// never reach finish; they are counted at admission.)
func outcomeOf(st State, errMsg string) string {
	switch st {
	case StateDone:
		return "ok"
	case StateCancelled:
		return "canceled"
	case StateCheckpointed:
		return "parked"
	case StateFailed:
		switch {
		case strings.HasPrefix(errMsg, "panic:"):
			return "panic"
		case errMsg == errRunDeadline.Error(), strings.HasPrefix(errMsg, "deadline:"):
			return "deadline"
		}
		return "error"
	}
	return string(st)
}

// recordFinish accounts, journals, and logs a terminal transition.
func (s *Server) recordFinish(rec journalRecord, lt lifecycleTimes, rl *obs.Logger) {
	outcome := outcomeOf(rec.State, rec.Error)
	s.scope.Counter("runs_" + string(rec.State)).Inc()
	s.scope.Counter("outcome_" + outcome).Inc()
	if lt.execSec >= 0 {
		s.scope.Histogram("exec_seconds", 0, execHistHi, lifecycleBuck).Observe(lt.execSec)
		s.scope.Histogram("exec_seconds_"+outcome, 0, execHistHi, lifecycleBuck).Observe(lt.execSec)
		s.observeExecTime(lt.execSec)
	}
	if lt.parkSec >= 0 {
		s.scope.Histogram("park_seconds", 0, parkHistHi, lifecycleBuck).Observe(lt.parkSec)
	}
	s.journal.append(rec, rec.Run, string(rec.State))
	kv := make([]any, 0, 10)
	kv = append(kv, "state", string(rec.State), "outcome", outcome)
	if lt.execSec >= 0 {
		kv = append(kv, "exec_s", lt.execSec)
	}
	if lt.parkSec >= 0 {
		kv = append(kv, "park_s", lt.parkSec)
	}
	if rec.Error != "" {
		kv = append(kv, "err", rec.Error)
		rl.Warn("run finished", kv...)
		return
	}
	if rec.Checkpoint != "" {
		kv = append(kv, "checkpoint", rec.Checkpoint)
	}
	rl.Info("run finished", kv...)
}

// interruptRunning cancels every running run with the given cause and
// returns how many were signalled.
func (s *Server) interruptRunning(cause error) int {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	n := 0
	for _, r := range runs {
		if r.interrupt(cause) {
			n++
		}
	}
	return n
}

// Drain shuts the server down gracefully: admission closes immediately
// (Submit returns ErrDraining), queued runs are finalized as cancelled,
// and in-flight runs get until ctx's deadline to finish on their own —
// after which they are interrupted and parked as checkpoints (or
// cancelled without a data dir). Drain returns once every accepted run
// is terminal and the journal is closed; it is idempotent, and only the
// first call's context matters.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { s.drainErr = s.drain(ctx) })
	return s.drainErr
}

func (s *Server) drain(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining.Store(true)
	close(s.queue)
	s.admitMu.Unlock()
	// Close the power gate so workers blocked waiting for a window pick
	// their runs back up and settle them (checkpointed when resumable).
	s.gate.close()
	// The fleet drains in parallel with runs: claims stop immediately,
	// heartbeat replies ask agents to release their cells, and leases
	// already granted stay valid so in-flight completions still land
	// until the journals close below.
	s.fleet.SetDraining(true)
	s.log.Info("draining: admission closed")

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		n := s.interruptRunning(errDrainCheckpoint)
		s.log.Warn("draining: grace expired", "interrupted", n)
		select {
		case <-done:
		case <-time.After(drainHardWait):
			return fmt.Errorf("serve: drain: workers still busy %s after interrupt", drainHardWait)
		}
	}
	s.ts.Stop()
	close(s.powerStop)
	s.powerWG.Wait()
	// Runs still parked for power settle now: checkpointed when they
	// have a durable snapshot (their parked records stay on disk for a
	// successor server), cancelled otherwise.
	s.finalizeParked()
	close(s.fleetStop)
	s.fleetWG.Wait()
	// One final registry pass: a sweep that finished just before drain
	// must get its done marker now — the fleet loop that would have
	// written it next tick is already stopped.
	s.markFinishedSweeps()
	if err := s.closeSweepJournals(); err != nil {
		return fmt.Errorf("serve: closing sweep journals: %w", err)
	}
	if s.regFile != nil {
		if err := s.regFile.Close(); err != nil {
			return fmt.Errorf("serve: closing sweep registry: %w", err)
		}
	}
	if s.jfile != nil {
		if err := s.jfile.Close(); err != nil {
			return fmt.Errorf("serve: closing run journal: %w", err)
		}
	}
	s.log.Info("drained: all runs terminal")
	return nil
}

// Kill stops the server abruptly, simulating a crash for restart
// tests: background loops stop and journal files close with none of
// drain's graceful bookkeeping — no released leases, no done markers,
// no terminal records. The on-disk journals are left exactly as a
// SIGKILL would leave them, so a successor Server on the same data dir
// exercises the real recovery path. Kill poisons Drain (and vice
// versa): whichever runs first wins.
func (s *Server) Kill() {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		s.draining.Store(true)
		close(s.queue)
		s.admitMu.Unlock()
		s.gate.close()
		s.ts.Stop()
		close(s.powerStop)
		s.powerWG.Wait()
		close(s.fleetStop)
		s.fleetWG.Wait()
		s.wg.Wait()
		s.closeSweepJournals()
		if s.regFile != nil {
			s.regFile.Close()
		}
		if s.jfile != nil {
			s.jfile.Close()
		}
		s.drainErr = errors.New("serve: server was killed")
	})
}

// execEWMAAlpha weights the newest run's execution time in the drain
// rate estimate; ~3-4 runs dominate the average, so the Retry-After
// hint tracks load shifts without whiplashing on one outlier.
const execEWMAAlpha = 0.3

// observeExecTime folds one finished run's execution time into the
// drain-rate EWMA (lock-free: racing updates just reorder the fold).
func (s *Server) observeExecTime(sec float64) {
	prev := math.Float64frombits(s.execEWMA.Load())
	next := sec
	if prev > 0 {
		next = execEWMAAlpha*sec + (1-execEWMAAlpha)*prev
	}
	s.execEWMA.Store(math.Float64bits(next))
}

// lifecycleStages are the four /status latency summaries and the
// histograms behind them.
var lifecycleStages = [...]string{"admission_wait", "queue_wait", "exec", "park"}

// Status summarizes the server for /status: occupancy, cumulative run
// outcomes, and interpolated p50/p95/p99 for each lifecycle stage.
func (s *Server) Status() obs.ServeStatus {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	st := obs.ServeStatus{
		Workers:  s.cfg.Workers,
		Draining: s.draining.Load(),
	}
	parked := 0
	for _, r := range runs {
		switch r.currentState() {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateParkedPower:
			parked++
		}
	}
	ms := s.reg.Snapshot()
	st.Power = s.powerStatusFor(ms, parked)
	st.Submitted = ms.Counter("serve.runs_submitted")
	st.Completed = ms.Counter("serve.runs_done")
	st.Failed = ms.Counter("serve.runs_failed")
	st.Shed = ms.Counter("serve.runs_shed")
	st.Latency = make(map[string]obs.LatencyStat, len(lifecycleStages))
	for _, stage := range lifecycleStages {
		h, ok := ms.Histograms["serve."+stage+"_seconds"]
		if !ok {
			continue
		}
		st.Latency[stage] = obs.LatencyStat{
			Count: h.Count,
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
	}
	st.Outcomes = make(map[string]int64)
	for name, v := range ms.Counters {
		if o, ok := strings.CutPrefix(name, "serve.outcome_"); ok {
			st.Outcomes[o] = v
		}
	}
	fs := s.fleet.Stats()
	st.Fleet = &obs.FleetStatus{
		AgentsLive:       fs.AgentsLive,
		LeasesActive:     fs.LeasesActive,
		SweepsOpen:       fs.SweepsOpen,
		AgentsReaped:     ms.Counter("fleet.agents_reaped"),
		LeasesExpired:    ms.Counter("fleet.leases_expired"),
		Requeues:         ms.Counter("fleet.requeues"),
		CellsCompleted:   ms.Counter("fleet.cells_completed"),
		CellsAbandoned:   ms.Counter("fleet.cells_abandoned"),
		StaleCompletions: ms.Counter("fleet.stale_completions"),
	}
	return st
}

// TimeSeries exposes the server's sample ring (for introspection tests).
func (s *Server) TimeSeries() *obs.TimeSeries { return s.ts }

// sampleTelemetry is the /v1/timeseries sampler: queue/worker occupancy
// and cumulative outcome counters (zcctop differentiates the counters
// into rates).
func (s *Server) sampleTelemetry(put func(string, float64)) {
	st := s.Status()
	put("queue_len", float64(st.Queued))
	put("running", float64(st.Running))
	put("submitted", float64(st.Submitted))
	put("completed", float64(st.Completed))
	put("failed", float64(st.Failed))
	put("shed", float64(st.Shed))
	put("journal_dropped", float64(s.JournalDropped()))
	if f := st.Fleet; f != nil {
		put("agents_live", float64(f.AgentsLive))
		put("leases_active", float64(f.LeasesActive))
		put("fleet_requeues", float64(f.Requeues))
		put("cells_completed", float64(f.CellsCompleted))
	}
	if p := st.Power; p != nil {
		open := 0.0
		if p.WindowOpen {
			open = 1
		}
		put("power_window_open", open)
		put("power_parked", float64(p.Parked))
		put("power_shed", float64(p.Shed))
	}
}

// describeSpec is the one-line log form of a spec.
func describeSpec(sp Spec) string {
	if sp.Experiment != "" {
		scale := "quick"
		if sp.Full {
			scale = "full"
		}
		return fmt.Sprintf("experiment %s, %s, seed %d", sp.Experiment, scale, sp.Seed)
	}
	return fmt.Sprintf("sim %.0fd x%.1f, zc %.1f, seed %d", sp.Days, sp.Scale, sp.ZCFactor, sp.Seed)
}

// Package serve implements the zccd simulation service: an HTTP API
// over a bounded admission queue and a fixed worker pool that executes
// simulation and experiment specs (internal/core, internal/experiments)
// with per-run deadlines, panic isolation, cancellation, and a graceful
// drain that checkpoints in-flight simulations through the
// snapshot/restore path.
//
// A run waits for a later resume through one park operation, whatever
// set it aside: an infeasible power admission, the power guard before
// a window closes, or a drain. A park writes the snapshot to
// <data>/<id>.snapshot.json and journals the park. <data>/runs.jsonl is
// the one durable record of every run: a server starting on the data
// dir replays it and re-adopts every run not done, failed or cancelled,
// so a run queued, running, parked or drained when the previous process
// stopped resumes exactly as a power-parked one does.
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
//   - Every state change goes through run.transition under the run's
//     lock, so the journal's order is the order clients observe.
//   - A run is durable before it is observable: a submission whose
//     first journal record cannot be written is refused (HTTP 503).
//     Later records that fail behind the journal's breaker are dropped
//     (counted), never stalling simulations; a run whose terminal
//     record was lost re-executes after a restart (at least once).
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
	// ErrJournalUnavailable refuses a run whose first journal record
	// could not be written (HTTP 503): a restart could not re-adopt it.
	ErrJournalUnavailable = errors.New("serve: run journal unavailable")
)

// Cancellation causes: the worker reads the context cause to decide
// whether an interrupted run is discarded, failed, or checkpointed.
var (
	errCancelled       = errors.New("cancelled by client")
	errDrainCheckpoint = errors.New("server draining")
	errRunDeadline     = errors.New("run deadline exceeded")
	errKilled          = errors.New("server killed")
)

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
	// DataDir, when set, holds the runs.jsonl journal and the parked
	// runs' snapshots; a server started on the same dir replays the
	// journal and re-adopts every unfinished run. Empty disables
	// persistence (checkpoint-less drain cancels in-flight runs instead).
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
	parked atomic.Int64 // runs in parked-for-power, kept by run.transition

	wg      sync.WaitGroup
	journal *journalSink

	// Sweep registry journal (<data>/sweeps/registry.jsonl): sweep
	// registrations, done/dropped markers, and token epochs — what a
	// restart replays to re-adopt open sweeps with pre-crash leases
	// fenced.
	registry *journalSink

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
	var readopt []journalRecord
	if cfg.DataDir != "" {
		if err := os.MkdirAll(filepath.Join(cfg.DataDir, "sweeps"), 0o755); err != nil {
			return nil, fmt.Errorf("serve: data dir: %w", err)
		}
		runsPath := filepath.Join(cfg.DataDir, "runs.jsonl")
		var err error
		readopt, s.nextID, err = replayRuns(runsPath)
		if err != nil {
			return nil, err
		}
		j, err := persist.OpenJournal(runsPath)
		if err != nil {
			return nil, fmt.Errorf("serve: opening run journal: %w", err)
		}
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
	// nothing) and unfinished runs must be re-adopted before a worker
	// can start anything.
	if err := s.initPower(); err != nil {
		return nil, err
	}
	s.readoptRuns(readopt)
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
// ErrDraining; a full queue sheds with ErrQueueFull and a journal that
// cannot record the run refuses it with ErrJournalUnavailable — neither
// registers the run, so it leaves no trace beyond a counter.
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
	r, ok := s.newRun(spec, time.Now(), true)
	if !ok {
		s.scope.Counter("runs_shed").Inc()
		s.scope.Counter("outcome_shed").Inc()
		r.log.Warn("run shed", "state", "shed", "queue_depth", s.cfg.QueueDepth)
		return RunInfo{}, ErrQueueFull
	}
	info, err := s.admit(r, StateQueued, r.submitted)
	if err != nil {
		return RunInfo{}, err
	}
	s.scope.Counter("runs_submitted").Inc()
	s.scope.Gauge("queue_high_water").SetMax(float64(len(s.queue)))
	admissionWait := time.Since(admitStart).Seconds()
	s.scope.Histogram("admission_wait_seconds", 0, admissionHistHi, lifecycleBuck).Observe(admissionWait)
	r.log.Info("run admitted", "state", string(StateQueued), "spec", describeSpec(spec),
		"queue_len", len(s.queue), "admission_wait_s", admissionWait)
	return info, nil
}

// newRun builds a run of spec submitted at now and gives it the next
// run id. With enqueue it is sent to the admission queue, and a full
// queue sheds it (ok false, its id spent). Otherwise the run is
// returned with r.mu held and no state yet: the caller admits it before
// unlocking, so no worker or Cancel record can precede its first.
func (s *Server) newRun(spec Spec, now time.Time, enqueue bool) (r *run, ok bool) {
	r = &run{spec: spec, submitted: now}
	if d := time.Duration(spec.DeadlineSeconds * float64(time.Second)); d > 0 {
		r.deadline = now.Add(d)
	}
	r.mu.Lock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	r.id = fmt.Sprintf("r-%06d", s.nextID)
	r.log = s.log.With("run_id", r.id)
	if enqueue {
		select {
		case s.queue <- r:
		default:
			r.mu.Unlock()
			return r, false
		}
	}
	return r, true
}

// admit journals a new or re-adopted run's first record of this process
// (queued or parked-for-power), registers the run and releases r.mu,
// held on entry. A run whose record cannot be journaled is refused with
// ErrJournalUnavailable, unregistered and stateless: a worker that
// dequeues it skips it, and a restart retries a refused re-adoption.
func (s *Server) admit(r *run, st State, now time.Time) (RunInfo, error) {
	defer r.mu.Unlock()
	if err := r.transition(s, st, now); err != nil {
		s.scope.Counter("runs_refused").Inc()
		r.log.Warn("run refused", "state", "refused", "err", err.Error())
		return RunInfo{}, fmt.Errorf("%w: %v", ErrJournalUnavailable, err)
	}
	s.mu.Lock()
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.mu.Unlock()
	return r.infoLocked(), nil
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

// List returns every registered run in submission order.
func (s *Server) List() []RunInfo {
	runs := s.snapshotRuns()
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
		s.finishLocked(r, StateCancelled, "cancelled by client", nil, nil)
		r.mu.Unlock()
	default:
		if r.interruptedAt.IsZero() {
			r.interruptedAt = time.Now()
		}
		r.clientCancel = true
		r.cancel(errCancelled)
		r.mu.Unlock()
	}
	return r.info(), nil
}

// worker executes queued runs until the queue is closed by Drain.
// During drain, still-queued runs are settled (settleDrained) instead of
// executed. Each launch first acquires a power-gate slot: the power
// loop moves the gate's limit with the stranded-power envelope, so
// workers idle (holding their queued run) while the window is closed
// and a brownout shrinks effective concurrency without killing
// anything already running.
func (s *Server) worker() {
	defer s.wg.Done()
	for r := range s.queue {
		// A closed gate means the server is shutting down.
		if s.draining.Load() || !s.gate.acquire() {
			s.settleDrained(r, "cancelled: server draining")
			continue
		}
		s.execute(r)
		s.gate.release()
		if !s.power.Enabled() && s.parked.Load() > 0 {
			// No power loop runs to resubmit parked runs: the re-adopted
			// ones that did not fit the queue at startup take the slot
			// this run freed.
			s.resubmitParked()
		}
	}
}

// settleDrained settles a run the drain overtook — queued, parked, or
// parked by the drain's own interrupt. One with a durable park snapshot
// becomes checkpointed and keeps its snapshot on disk, so a successor
// server re-adopts it; any other is cancelled with why. A run refused at
// admission has no state and is left alone.
func (s *Server) settleDrained(r *run, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.state == "", r.state.Terminal():
	case r.checkpoint != "":
		s.finishLocked(r, StateCheckpointed, "", nil, nil)
	default:
		s.finishLocked(r, StateCancelled, why, nil, nil)
	}
}

// execute runs one spec under panic isolation, a cancellable context,
// and the run deadline.
func (s *Server) execute(r *run) {
	defer func() {
		if p := recover(); p != nil {
			s.scope.Counter("run_panics").Inc()
			r.log.Error("run panicked", "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			s.finish(r, StateFailed, fmt.Sprintf("panic: %v", p), nil, nil)
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

	if !r.start(s, time.Now(), cancel) {
		return // cancelled while queued, or refused at admission
	}
	queueWait := r.started.Sub(r.submitted).Seconds()
	s.scope.Histogram("queue_wait_seconds", 0, queueHistHi, lifecycleBuck).Observe(queueWait)
	r.log.Info("run started", "state", string(StateRunning), "spec", describeSpec(r.spec),
		"queue_wait_s", queueWait)

	if r.spec.Experiment != "" {
		s.executeExperiment(ctx, r)
		return
	}
	var m *core.Metrics
	var err error
	var sink *tracebin.File
	var tracePath string
	if s.execHook != nil {
		m, err = s.execHook(ctx, r.spec)
	} else {
		var snap *sched.Snapshot
		snap, err = s.takeResume(r)
		if err != nil {
			s.finish(r, StateFailed, err.Error(), nil, nil)
			return
		}
		o := obs.Options{Log: s.log, RunID: r.id}
		if r.spec.Trace != "" {
			sink, tracePath, err = s.openTraceSink(r, snap != nil)
			if err != nil {
				s.finish(r, StateFailed, err.Error(), nil, nil)
				return
			}
			// Abort is a no-op after Commit, so the deferred call only
			// discards traces of runs that did not land.
			defer sink.Abort()
			o.Tracer = sink
		}
		var cfg core.RunConfig
		cfg, err = r.spec.runConfig(o)
		if err != nil {
			s.finish(r, StateFailed, err.Error(), nil, nil)
			return
		}
		if snap != nil {
			// A parked run resumes from its checkpoint over the trace
			// its spec regenerates.
			m, err = core.ResumeContext(ctx, cfg, snap)
		} else {
			m, err = core.RunContext(ctx, cfg)
		}
	}
	if err == nil {
		if err := commitTrace(sink); err != nil {
			s.finish(r, StateFailed, err.Error(), nil, nil)
			return
		}
		r.mu.Lock()
		r.trace = tracePath
		r.mu.Unlock()
		s.finish(r, StateDone, "", m, nil)
		return
	}
	var intr *core.Interrupted
	if errors.As(err, &intr) {
		s.settleInterrupted(ctx, r, intr.Snapshot, sink, tracePath)
		return
	}
	s.finish(r, StateFailed, err.Error(), nil, nil)
}

// openTraceSink creates the event-trace sink a Spec.Trace run writes
// into, under <data>/traces. The sink stages into a temp file; Commit
// renames it into place, Abort discards it. A resumed run first copies
// in the prefix its park committed at the same path, so the landed
// trace holds every event of the run, not only those after the resume.
func (s *Server) openTraceSink(r *run, resume bool) (*tracebin.File, string, error) {
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
	if !resume {
		return sink, path, nil
	}
	prefix, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return sink, path, nil // the park landed no trace
	}
	if err == nil {
		// Only this run's events: another run may have landed a trace
		// under the same name since.
		err = tracebin.ReadAny(prefix, func(e obs.Event) error {
			if e.Run == r.id {
				sink.Trace(e)
			}
			return nil
		})
		prefix.Close()
	}
	if err != nil {
		sink.Abort()
		return nil, "", fmt.Errorf("serve: copying trace prefix: %v", err)
	}
	return sink, path, nil
}

// commitTrace lands a run's trace atomically; a nil sink is a no-op.
// The caller records the path in r.trace under r.mu.
func commitTrace(sink *tracebin.File) error {
	if sink == nil {
		return nil
	}
	if err := sink.Commit(); err != nil {
		return fmt.Errorf("serve: committing trace: %v", err)
	}
	return nil
}

// settleInterrupted maps an interrupted simulation to its next state
// from the context cause: a deadline fails it, a client cancel discards
// it, and a power-guard preemption or a drain parks it. The drain then
// settles the parked run at once: checkpointed when its snapshot is on
// disk, cancelled otherwise. A drained experiment, which has no single
// resumable snapshot, is cancelled. A kill leaves the run as a crash
// would.
func (s *Server) settleInterrupted(ctx context.Context, r *run, snap *sched.Snapshot, sink *tracebin.File, tracePath string) {
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, errKilled):
	case errors.Is(cause, errRunDeadline):
		s.finish(r, StateFailed, errRunDeadline.Error(), nil, nil)
	case errors.Is(cause, errDrainCheckpoint) && r.spec.Experiment != "":
		s.finish(r, StateCancelled, "cancelled: server draining", nil, nil)
	case errors.Is(cause, errPowerPark), errors.Is(cause, errDrainCheckpoint):
		checkpoint, parked := s.park(r, snap, sink, tracePath)
		if !parked {
			return
		}
		if errors.Is(cause, errDrainCheckpoint) {
			s.settleDrained(r, "cancelled: server draining (no data dir to checkpoint into)")
			return
		}
		s.scope.Counter("power_parked_midrun").Inc()
		r.log.Info("run parked for power", "state", string(StateParkedPower), "checkpoint", checkpoint)
	default:
		s.finish(r, StateCancelled, errCancelled.Error(), nil, nil)
	}
}

// executeExperiment runs a paper artifact. Experiments are multi-run
// aggregates with no single resumable snapshot, so drain cancels them
// rather than checkpointing.
func (s *Server) executeExperiment(ctx context.Context, r *run) {
	e, err := experiments.ByID(r.spec.Experiment)
	if err != nil {
		s.finish(r, StateFailed, err.Error(), nil, nil)
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
		s.finish(r, StateDone, "", nil, tbl)
		return
	}
	if ctx.Err() != nil {
		s.settleInterrupted(ctx, r, nil, nil, "")
		return
	}
	s.finish(r, StateFailed, err.Error(), nil, nil)
}

// finish finalizes a run unless it already reached a terminal state.
func (s *Server) finish(r *run, st State, errMsg string, m *core.Metrics, tbl *experiments.Table) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.state.Terminal() {
		s.finishLocked(r, st, errMsg, m, tbl)
	}
}

// finishLocked removes the run's park snapshot — except for
// checkpointed, whose snapshot a successor server resumes — then moves
// it to a terminal state, accounts and logs it; r.mu held. A client
// that observes the terminal state thus finds it journaled and the
// snapshot gone. A failed removal only leaves a file behind.
func (s *Server) finishLocked(r *run, st State, errMsg string, m *core.Metrics, tbl *experiments.Table) {
	r.err, r.metrics, r.table, r.finished = errMsg, m, tbl, time.Now()
	if st != StateCheckpointed && r.checkpoint != "" {
		os.Remove(r.checkpoint)
		r.checkpoint = ""
	}
	r.transition(s, st, r.finished)
	outcome := outcomeOf(st, errMsg)
	s.scope.Counter("runs_" + string(st)).Inc()
	s.scope.Counter("outcome_" + outcome).Inc()
	kv := make([]any, 0, 10)
	kv = append(kv, "state", string(st), "outcome", outcome)
	if !r.started.IsZero() {
		execSec := r.finished.Sub(r.started).Seconds()
		s.scope.Histogram("exec_seconds", 0, execHistHi, lifecycleBuck).Observe(execSec)
		s.scope.Histogram("exec_seconds_"+outcome, 0, execHistHi, lifecycleBuck).Observe(execSec)
		s.observeExecTime(execSec)
		kv = append(kv, "exec_s", execSec)
	}
	if !r.interruptedAt.IsZero() {
		parkSec := r.finished.Sub(r.interruptedAt).Seconds()
		s.scope.Histogram("park_seconds", 0, parkHistHi, lifecycleBuck).Observe(parkSec)
		kv = append(kv, "park_s", parkSec)
	}
	if errMsg != "" {
		kv = append(kv, "err", errMsg)
		r.log.Warn("run finished", kv...)
		return
	}
	if r.checkpoint != "" {
		kv = append(kv, "checkpoint", r.checkpoint)
	}
	r.log.Info("run finished", kv...)
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

// interruptRunning cancels every running run with the given cause and
// returns how many were signalled.
func (s *Server) interruptRunning(cause error) int {
	n := 0
	for _, r := range s.snapshotRuns() {
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
	// Every run is terminal or parked now; the parked ones settle.
	for _, r := range s.snapshotRuns() {
		s.settleDrained(r, "cancelled: server draining while parked for power")
	}
	close(s.fleetStop)
	s.fleetWG.Wait()
	// One final registry pass: a sweep that finished just before drain
	// must get its done marker now — the fleet loop that would have
	// written it next tick is already stopped.
	s.markFinishedSweeps()
	if err := s.closeSweepJournals(); err != nil {
		return fmt.Errorf("serve: closing sweep journals: %w", err)
	}
	if err := s.registry.close(); err != nil {
		return fmt.Errorf("serve: closing sweep registry: %w", err)
	}
	if err := s.journal.close(); err != nil {
		return fmt.Errorf("serve: closing run journal: %w", err)
	}
	s.log.Info("drained: all runs terminal")
	return nil
}

// Kill stops the server abruptly, simulating a crash for restart
// tests: the run journal closes first, running runs are interrupted and
// left as they were, and background loops stop with none of drain's
// bookkeeping (no released leases, done markers or terminal records).
// A successor Server on the same data dir thus exercises the real
// recovery path. Kill poisons Drain (and vice versa): whichever runs
// first wins.
func (s *Server) Kill() {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		s.journal.close()
		s.draining.Store(true)
		close(s.queue)
		s.admitMu.Unlock()
		s.gate.close()
		s.interruptRunning(errKilled)
		s.ts.Stop()
		close(s.powerStop)
		s.powerWG.Wait()
		close(s.fleetStop)
		s.fleetWG.Wait()
		s.wg.Wait()
		s.closeSweepJournals()
		s.registry.close()
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
	st := obs.ServeStatus{
		Workers:  s.cfg.Workers,
		Draining: s.draining.Load(),
	}
	for _, r := range s.snapshotRuns() {
		switch r.currentState() {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
	}
	ms := s.reg.Snapshot()
	st.Power = s.powerStatusFor(ms)
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

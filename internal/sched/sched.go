// Package sched implements the batch scheduler of the ZCCloud study: an
// event-driven FCFS scheduler with EASY backfill over a machine of
// partitions, where partitions may be intermittently available.
//
// It reproduces the scheduling model of Cobalt/Qsim at the abstraction
// level the paper measures (job wait time, throughput):
//
//   - jobs are served first-come-first-served by submission time;
//   - EASY backfill: the first blocked job receives a reservation at its
//     earliest feasible start, and later jobs may jump ahead only if they
//     cannot delay that reservation;
//   - a single scheduler dispatches across all partitions, balancing load
//     ("distributes jobs equally across Mira and ZCCloud resources when
//     ZCCloud is available");
//   - a job whose walltime request can never fit inside the intermittent
//     partition's longest window is pinned to always-on partitions
//     ("long-running jobs ... are only assigned to Mira resources");
//   - in Oracle mode (the paper's model) the scheduler knows the current
//     availability window's end and starts a job on an intermittent
//     partition only if the job's request fits before the window closes,
//     so downtime never kills work;
//   - in non-Oracle (kill/requeue) mode the window end is unknown: jobs
//     running at a downtime transition are killed and resubmitted.
//
// Each partition keeps a release index: its running jobs ordered by
// (requested end, nodes, job ID). A job's requested end (start plus the
// attempt's budgeted walltime) and the end of the window it started in
// are fixed while it runs, so both are computed once at start. The EASY
// reservation (earliestStart) and its spare-node guard (extraNodesAt)
// walk that slice instead of gathering and sorting the running set on
// every pass; start, finish, kill and Restore keep it current with a
// binary-search insert or remove. The running map is only a lookup by ID.
package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/faults"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
)

// infTime is an unreachable simulated time used as "never".
const infTime = sim.Time(math.MaxFloat64 / 4)

// Policy selects the queue-ordering discipline.
type Policy int

// Queue policies.
const (
	// FCFS orders strictly by submission time.
	FCFS Policy = iota
	// WFP orders by Cobalt's production utility at ALCF: score =
	// (wait / requested walltime)³ × nodes — long-waiting and large
	// (capability) jobs rise to the head. This is the policy behind the
	// paper's Mira results.
	WFP
)

func (p Policy) String() string {
	if p == WFP {
		return "wfp"
	}
	return "fcfs"
}

// Config configures a Scheduler.
type Config struct {
	Machine *cluster.Machine
	// Policy is the queue discipline; default FCFS.
	Policy Policy
	// Oracle selects window-aware scheduling (the paper's model). When
	// false, the scheduler is blind to window ends and kills/requeues.
	Oracle bool
	// BackfillDepth bounds how many queued jobs each pass considers for
	// backfill after the reservation is placed; 0 means the whole queue.
	BackfillDepth int
	// DisableBackfill selects plain FCFS: when the queue head is blocked
	// nothing jumps ahead of it.
	DisableBackfill bool
	// PredictedWindow enables predictive scheduling in non-Oracle mode:
	// instead of being blind to window ends, the scheduler assumes every
	// availability window lasts PredictedWindow from its start and admits
	// a job only if its request fits the assumed remainder. Jobs still
	// get killed if the real window ends sooner (the paper's "use of
	// prediction" future-work direction). Ignored in Oracle mode or when
	// zero.
	PredictedWindow sim.Duration
	// Predictor generalizes PredictedWindow: an age-aware window-end
	// predictor (e.g. internal/forecast's hazard model). When set it
	// supersedes PredictedWindow for admission decisions. Ignored in
	// Oracle mode.
	Predictor WindowPredictor
	// CheckpointInterval enables checkpoint/restart in non-Oracle mode:
	// running jobs snapshot their state every interval, and a job killed
	// by a window end resumes from its last checkpoint instead of
	// restarting from scratch. Zero disables checkpointing (kills lose
	// all partial work). Ignored in Oracle mode, where nothing is killed.
	CheckpointInterval sim.Duration
	// CheckpointOverhead is the time cost added per checkpoint taken
	// (write-out stall). Only meaningful with CheckpointInterval > 0.
	CheckpointOverhead sim.Duration
	// Classify, when non-nil, is the availability model used to tag each
	// arriving job OnTime or Late (paper, Figure 6): OnTime if the model
	// is up at submission and the job's runtime fits in the remaining
	// window.
	Classify availability.Model
	// Faults, when non-nil, injects stochastic node failures, availability
	// forecast error, and brownouts (see internal/faults), and activates
	// the recovery policy (requeue order, bounded retries with backoff).
	// The scheduler's admission logic keeps believing the clean
	// availability model; only the injected reality diverges. Nil (or an
	// injector with no active dimension) leaves every scheduling decision
	// byte-identical to a fault-free run.
	Faults *faults.Injector
	// Tracer receives one typed event per scheduler decision (arrivals,
	// starts, kills, reservations, window transitions). Nil disables
	// tracing at near-zero cost.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives the run's counters under the
	// "sched" and "sim" scopes when Run returns.
	Metrics *obs.Registry
	// Progress, when non-nil, receives throttled progress callbacks from
	// the event loop.
	Progress *obs.Progress
	// Status, when non-nil, receives throttled live run-state samples
	// (sim clock, queue depth, per-partition occupancy, event rate) from
	// the event loop — the data behind the introspection server's
	// /status endpoint. Nil costs nothing.
	Status *obs.Status
	// Log, when non-nil, receives debug-level structured lines for
	// low-frequency scheduler events (window transitions, faults,
	// abandonments, checkpoints). Per-job lifecycle events stay in the
	// trace; the log is for humans tailing a run. Nil costs nothing.
	Log *obs.Logger
	// Check enables the scheduler invariant checker after every
	// dispatched event: capacity conservation, queue/running exclusivity,
	// monotone event times, and job-state conservation. A violation stops
	// the run with an *InvariantViolation error.
	Check bool
	// Interrupt, when non-nil, is polled between events; once it reports
	// true, Run stops at the next event boundary and returns
	// ErrInterrupted. The scheduler is then in a consistent state and can
	// be snapshotted.
	Interrupt func() bool
	// StopAt, when positive, interrupts the run before dispatching any
	// event later than this simulated time — a deterministic interruption
	// point for snapshot tests and the CLIs' -snapshot-at flag. Run
	// returns ErrInterrupted exactly as for Interrupt.
	StopAt sim.Time
}

// WindowPredictor estimates when the availability window that began at
// start will end, given the current time. Implementations live in
// internal/forecast.
type WindowPredictor interface {
	PredictedEnd(start, now sim.Time) sim.Time
}

// fixedPredictor implements PredictedWindow as a WindowPredictor.
type fixedPredictor sim.Duration

func (f fixedPredictor) PredictedEnd(start, now sim.Time) sim.Time {
	return start + sim.Duration(f)
}

// Result summarizes a completed simulation run.
type Result struct {
	Completed  int
	Unfinished int // jobs still queued or running at the deadline
	Unrunnable int // jobs that fit no partition at all
	Makespan   sim.Time
	// NodeHoursByPartition is delivered node-hours per partition name.
	NodeHoursByPartition map[string]float64
	// Passes counts scheduling passes (for performance reporting).
	Passes int
	// Started counts job launches, including restarts after a kill;
	// Backfilled is the subset that jumped the queue via EASY backfill.
	Started    int
	Backfilled int
	// Killed and Requeued count window-end kills and the resulting
	// resubmissions (non-oracle mode only).
	Killed   int
	Requeued int
	// Abandoned counts jobs that exhausted their retry budget after
	// repeated kills (fault-injection runs only); terminal, not Unfinished.
	Abandoned int
	// BackingOff counts jobs still waiting out a retry backoff delay when
	// the run hit its deadline — neither queued nor running, and counted
	// in Unfinished. Nonzero means the backoff schedule starved jobs past
	// the horizon; the summary surfaces it instead of silently dropping
	// them.
	BackingOff int
	// NodeFailures and Brownouts count injected fault events (zero
	// without a fault injector).
	NodeFailures int
	Brownouts    int
	// Pinned counts jobs whose walltime can never fit an intermittent
	// partition's longest window — they only ever run on always-on
	// partitions.
	Pinned int
	// PeakQueueLen is the wait queue's high-water mark.
	PeakQueueLen int
}

type runningJob struct {
	j   *job.Job
	p   *cluster.Partition
	end sim.Handle
	rel release // the job's entry in p's release index
}

// release is one running job's entry in its partition's release index.
type release struct {
	at     sim.Time // requested end: start + attemptRequest, fixed while the job runs
	winEnd sim.Time // end of the availability window the job started in; infTime if none
	nodes  int
	job    int
}

// cmpRelease is the release index order: (at, nodes, job).
func cmpRelease(a, b release) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.nodes, b.nodes); c != 0 {
		return c
	}
	return cmp.Compare(a.job, b.job)
}

// Scheduler is the event-driven batch scheduler.
type Scheduler struct {
	cfg            Config
	eng            *sim.Engine[pendingEvent]
	tracer         obs.Tracer
	tracing        bool       // tracer is live (non-Nop); guards trace-only work
	queue          []*job.Job // FCFS order: (Submit, ID)
	running        map[int]*runningJob
	releases       map[*cluster.Partition][]release // per-partition release index
	jobs           map[int]*job.Job                 // every submitted job by ID
	total          int
	arrived        int // jobs whose arrival event has fired
	backoff        int // killed jobs waiting out a retry delay (neither queued nor running)
	done           int
	unrun          int
	nodeHrs        map[string]float64
	passes         int
	deadline       sim.Time
	passAt         sim.Time // coalesce multiple pass requests at one instant
	passSet        bool
	lastEnd        sim.Time
	scores         []float64 // scratch for WFP sorting
	err            error     // first fatal scheduling error; stops Run
	restored       bool      // built by Restore: pending events already scheduled
	availScheduled bool      // availability/fault events materialized (Run is re-entrant)
	checked        sim.Time  // last event time seen by the invariant checker

	// Fault-layer state (nil maps when cfg.Faults is nil).
	failOffline   map[string]int   // nodes down from injected failures, per partition
	windowOffline map[string]int   // nodes down from a window end under the fate path
	queueAt       map[int]sim.Time // requeue-to-back: effective queue time override
	abandoned     int
	nodeFailures  int
	brownouts     int

	// Telemetry accounting (mirrored into Result and cfg.Metrics).
	started    int
	backfilled int
	killed     int
	requeued   int
	pinned     int
	peakQueue  int
	resJob     int      // job holding the EASY reservation; -1 when none
	resTime    sim.Time // its reserved start time

	// Reservation-search counters, published under "sched" but not
	// snapshotted: a restored run counts only its continuation.
	earliestCalls   int // earliestStart calls
	releasesScanned int // release-index entries walked by earliestStart and extraNodesAt
}

// New creates a Scheduler on a fresh event engine. Machine is required;
// a nil or misconfigured Config is reported as an error, never a panic.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("sched: Config requires a Machine")
	}
	if cfg.Predictor == nil && cfg.PredictedWindow > 0 {
		cfg.Predictor = fixedPredictor(cfg.PredictedWindow)
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.Nop{}
	}
	s := &Scheduler{
		cfg:      cfg,
		eng:      sim.New[pendingEvent](),
		tracer:   cfg.Tracer,
		tracing:  obs.Enabled(cfg.Tracer),
		running:  make(map[int]*runningJob),
		releases: make(map[*cluster.Partition][]release),
		jobs:     make(map[int]*job.Job),
		nodeHrs:  make(map[string]float64),
		resJob:   -1,
	}
	if cfg.Faults != nil {
		s.failOffline = make(map[string]int)
		s.windowOffline = make(map[string]int)
	}
	return s, nil
}

// LoadTrace schedules arrival events for every job in the trace.
func (s *Scheduler) LoadTrace(tr *job.Trace) error {
	for _, j := range tr.Jobs {
		if err := s.Submit(j); err != nil {
			return err
		}
	}
	return nil
}

// Submit schedules the arrival of one job. Invalid jobs (including
// duplicate IDs) are rejected with an error and leave the scheduler
// unchanged.
func (s *Scheduler) Submit(j *job.Job) error {
	if err := job.Validate(j); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	if _, dup := s.jobs[j.ID]; dup {
		return fmt.Errorf("sched: duplicate job ID %d", j.ID)
	}
	s.jobs[j.ID] = j
	s.total++
	s.schedule(pendingEvent{Kind: evArrival, At: j.Submit, Prio: sim.PrioArrival, Job: j.ID})
	return nil
}

// ErrInterrupted is returned by Run when Config.Interrupt reports true
// or the StopAt boundary is reached. The scheduler is then paused at a
// consistent event boundary: call Snapshot to persist it, and Restore
// (in a fresh process) to continue the run byte-identically.
var ErrInterrupted = errors.New("sched: run interrupted")

// cancelStride is how many events RunContext dispatches between context
// polls. A context poll is a channel select; doing one per event would
// slow the hot loop measurably, so cancellation latency is bounded by
// one stride of events (microseconds of wall clock) instead.
const cancelStride = 64

// Run executes the simulation until all jobs finish or deadline passes,
// and returns the result. Deadline bounds runs whose workload exceeds
// capacity (the paper's "X" configurations). A non-nil error means the
// scheduler hit an internal inconsistency (e.g. an allocation failure
// or, under Config.Check, an invariant violation) and the Result is not
// meaningful — except ErrInterrupted, which leaves the scheduler
// consistent and snapshottable.
func (s *Scheduler) Run(deadline sim.Time) (Result, error) {
	return s.RunContext(context.Background(), deadline)
}

// RunContext is Run with cooperative cancellation: once ctx is cancelled
// the run stops at an event boundary within one cancelStride of events
// and returns ErrInterrupted, exactly as Config.Interrupt does — the
// scheduler is left consistent and snapshottable, and a Resume from that
// snapshot continues byte-identically. A context that can never be
// cancelled (ctx.Done() == nil, e.g. context.Background()) is never
// polled, so Run's hot loop pays nothing for the plumbing.
func (s *Scheduler) RunContext(ctx context.Context, deadline sim.Time) (Result, error) {
	if s.restored {
		// A restored run already materialized its availability events up
		// to the snapshot's deadline; a different one would silently
		// change the world mid-run.
		if deadline != s.deadline {
			return Result{}, fmt.Errorf("sched: restored run has deadline %v, Run called with %v",
				s.deadline, deadline)
		}
	} else if !s.availScheduled {
		// Materialize availability and fault events exactly once: Run may
		// be re-entered after ErrInterrupted to continue in-process.
		s.scheduleAvailabilityEvents(deadline)
		s.availScheduled = true
	} else if deadline != s.deadline {
		return Result{}, fmt.Errorf("sched: continued run has deadline %v, Run called with %v",
			s.deadline, deadline)
	}
	s.deadline = deadline
	done := ctx.Done()
	untilPoll := 0 // poll ctx immediately, then every cancelStride events
	for s.err == nil {
		if done != nil {
			if untilPoll == 0 {
				select {
				case <-done:
					return Result{}, ErrInterrupted
				default:
				}
				untilPoll = cancelStride
			}
			untilPoll--
		}
		t, ok := s.eng.NextTime()
		if !ok || t > deadline {
			break
		}
		if s.cfg.StopAt > 0 && t > s.cfg.StopAt {
			return Result{}, ErrInterrupted
		}
		if s.cfg.Interrupt != nil && s.cfg.Interrupt() {
			return Result{}, ErrInterrupted
		}
		if now, pe, ok := s.eng.Next(); ok {
			s.exec(pe, now)
		}
		if err := s.eng.Err(); err != nil && s.err == nil {
			s.err = fmt.Errorf("sched: %w", err)
		}
		if s.cfg.Check && s.err == nil {
			if err := s.CheckInvariants(); err != nil {
				s.tracer.Trace(obs.Event{Time: s.eng.Now(), Kind: obs.EvInvariantViolation, Job: -1})
				if r := s.cfg.Metrics; r != nil {
					r.Scope("sched").Counter("invariant_violations").Inc()
				}
				s.err = err
			}
		}
		s.cfg.Progress.Observe(t, deadline)
		if s.cfg.Status.SimDue() {
			s.publishStatus()
		}
	}
	if s.err != nil {
		return Result{}, s.err
	}
	if s.cfg.Status != nil {
		s.publishStatus() // final sample: the run's end state
	}
	res := Result{
		Completed:            s.done,
		Unfinished:           s.total - s.done - s.unrun - s.abandoned,
		Unrunnable:           s.unrun,
		Makespan:             s.lastEnd,
		NodeHoursByPartition: s.nodeHrs,
		Passes:               s.passes,
		Started:              s.started,
		Backfilled:           s.backfilled,
		Killed:               s.killed,
		Requeued:             s.requeued,
		Abandoned:            s.abandoned,
		BackingOff:           s.backoff,
		NodeFailures:         s.nodeFailures,
		Brownouts:            s.brownouts,
		Pinned:               s.pinned,
		PeakQueueLen:         s.peakQueue,
	}
	s.publishMetrics()
	return res, nil
}

// publishStatus samples the scheduler's live state into cfg.Status for
// the introspection server. It runs on the simulation goroutine (the
// board is mutex-protected for concurrent HTTP readers) and only reads
// state, so runs with and without a status board stay byte-identical.
func (s *Scheduler) publishStatus() {
	es := s.eng.Stats()
	st := obs.SimStatus{
		ClockDays:        float64(es.Now) / float64(sim.Day),
		DeadlineDays:     float64(s.deadline) / float64(sim.Day),
		QueueLen:         len(s.queue),
		RunningJobs:      len(s.running),
		CompletedJobs:    s.done,
		TotalJobs:        s.total,
		EventsDispatched: es.Steps,
		EventsPending:    es.Pending,
	}
	if s.deadline > 0 {
		st.Percent = 100 * float64(es.Now) / float64(s.deadline)
	}
	for _, p := range s.cfg.Machine.Partitions {
		ps := obs.PartitionStatus{
			Name: p.Name, Nodes: p.Nodes, Busy: p.InUse(), Offline: p.Offline(),
		}
		if avail := p.Nodes - ps.Offline; avail > 0 {
			ps.Utilization = float64(ps.Busy) / float64(avail)
		}
		st.Partitions = append(st.Partitions, ps)
	}
	s.cfg.Status.SetSim(st)
	// Mirror a few live gauges into the registry so a /metrics scrape
	// mid-run shows movement (the full counters fold in when Run ends).
	if r := s.cfg.Metrics; r != nil {
		live := r.Scope("live")
		live.Gauge("sim_days").Set(st.ClockDays)
		live.Gauge("queue_len").Set(float64(st.QueueLen))
		live.Gauge("running_jobs").Set(float64(st.RunningJobs))
		live.Gauge("jobs_completed").Set(float64(st.CompletedJobs))
		live.Gauge("events_dispatched").Set(float64(st.EventsDispatched))
	}
}

// publishMetrics folds the run's accounting into the configured registry.
// Counters accumulate across runs sharing one registry; gauges keep the
// maximum, so a suite-wide snapshot reports true high-water marks.
func (s *Scheduler) publishMetrics() {
	r := s.cfg.Metrics
	if r == nil {
		return
	}
	sc := r.Scope("sched")
	sc.Counter("jobs_started").Add(int64(s.started))
	sc.Counter("jobs_backfilled").Add(int64(s.backfilled))
	sc.Counter("jobs_killed").Add(int64(s.killed))
	sc.Counter("jobs_requeued").Add(int64(s.requeued))
	sc.Counter("jobs_pinned").Add(int64(s.pinned))
	sc.Counter("jobs_unrunnable").Add(int64(s.unrun))
	sc.Counter("jobs_completed").Add(int64(s.done))
	sc.Counter("passes").Add(int64(s.passes))
	sc.Counter("earliest_start_calls").Add(int64(s.earliestCalls))
	sc.Counter("releases_scanned").Add(int64(s.releasesScanned))
	sc.Gauge("queue_peak").SetMax(float64(s.peakQueue))
	if s.cfg.Faults != nil {
		// Registered only on faulted runs so fault-free snapshots stay
		// identical to the pre-fault-layer output.
		sc.Counter("jobs_abandoned").Add(int64(s.abandoned))
		sc.Counter("node_failures").Add(int64(s.nodeFailures))
		sc.Counter("brownouts").Add(int64(s.brownouts))
		// Jobs still waiting out a retry backoff when the run ended: they
		// are neither queued nor running, so without this line they would
		// vanish into Unfinished with no trace of why.
		sc.Gauge("jobs_backing_off_at_end").SetMax(float64(s.backoff))
	}
	st := s.eng.Stats()
	se := r.Scope("sim")
	se.Counter("events_dispatched").Add(int64(st.Steps))
	se.Gauge("max_queue_len").SetMax(float64(st.MaxQueueLen))
}

// scheduleAvailabilityEvents enqueues window-start (and, for kill/requeue
// mode, window-end) events for intermittent partitions up to the deadline,
// plus injected node-failure events on every partition when a fault
// injector is configured.
func (s *Scheduler) scheduleAvailabilityEvents(deadline sim.Time) {
	for _, p := range s.cfg.Machine.Partitions {
		p := p
		if _, ok := p.Avail.(availability.AlwaysOn); !ok {
			s.scheduleWindowEvents(p, deadline)
		}
		s.scheduleOutageEvents(p, deadline)
	}
}

// scheduleWindowEvents enqueues the power transitions of one intermittent
// partition. With a window-perturbing fault injector, each believed window
// is replaced by its fate: the actual end may come early or late, and may
// be a brownout that leaves part of the partition powered.
func (s *Scheduler) scheduleWindowEvents(p *cluster.Partition, deadline sim.Time) {
	ws := availability.Materialize(p.Avail, 0, deadline)
	if inj := s.cfg.Faults; inj != nil && inj.Config().PerturbsWindows() {
		for _, f := range inj.Fates(p.Name, p.Nodes, ws) {
			s.schedule(pendingEvent{Kind: evFateStart, At: f.Believed.Start, Prio: sim.PrioRelease,
				Part: p.Name, End: f.Believed.End})
			s.schedule(pendingEvent{Kind: evFateEnd, At: f.ActualEnd, Prio: sim.PrioWithdraw,
				Part: p.Name, Fate: &f})
		}
		return
	}
	for _, w := range ws {
		s.schedule(pendingEvent{Kind: evWindowUp, At: w.Start, Prio: sim.PrioRelease,
			Part: p.Name, End: w.End})
		if !s.cfg.Oracle {
			s.schedule(pendingEvent{Kind: evWindowEnd, At: w.End, Prio: sim.PrioWithdraw, Part: p.Name})
		} else if s.tracing {
			// Oracle mode needs no window-end handling (nothing is ever
			// killed), but the trace still records the transition so a
			// replay sees the full availability signal.
			s.schedule(pendingEvent{Kind: evWindowDownMark, At: w.End, Prio: sim.PrioWithdraw, Part: p.Name})
		}
	}
}

// scheduleOutageEvents enqueues injected node-failure events for p.
func (s *Scheduler) scheduleOutageEvents(p *cluster.Partition, deadline sim.Time) {
	inj := s.cfg.Faults
	if inj == nil {
		return
	}
	for _, o := range inj.Outages(p.Name, deadline) {
		s.schedule(pendingEvent{Kind: evOutage, At: o.At, Prio: sim.PrioWithdraw,
			Part: p.Name, Outage: &o})
	}
}

func (s *Scheduler) arrive(j *job.Job, now sim.Time) {
	s.arrived++
	if s.cfg.Classify != nil {
		j.Timeliness = classify(j, s.cfg.Classify, now)
	}
	s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvArrive, Job: j.ID, Nodes: j.Nodes, Detail: float64(j.Request)})
	if !s.fitsAnywhere(j) {
		s.unrun++
		s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvUnrunnable, Job: j.ID, Nodes: j.Nodes})
		return
	}
	if s.pinnedToAlwaysOn(j) {
		s.pinned++
		s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvPin, Job: j.ID, Nodes: j.Nodes, Detail: float64(j.Request)})
	}
	s.enqueue(j)
	s.requestPass(now)
}

// pinnedToAlwaysOn reports whether j is node-feasible on some intermittent
// partition but barred from all of them by the window-length rule — i.e.
// the job will only ever run on always-on resources (the paper's
// "long-running jobs ... are only assigned to Mira resources").
func (s *Scheduler) pinnedToAlwaysOn(j *job.Job) bool {
	pinned := false
	for _, p := range s.cfg.Machine.Partitions {
		if s.alwaysOn(p) || j.Nodes > p.Nodes {
			continue
		}
		if s.eligible(j, p) {
			return false
		}
		pinned = true
	}
	return pinned
}

// classify tags a job OnTime if the intermittent model is up at submission
// with enough window left for the job's runtime, else Late (paper, §IV.B).
func classify(j *job.Job, m availability.Model, now sim.Time) job.Timeliness {
	if w, ok := m.WindowAt(now); ok && now+j.Runtime <= w.End {
		return job.OnTime
	}
	return job.Late
}

// fitsAnywhere reports whether some partition can ever run the job.
func (s *Scheduler) fitsAnywhere(j *job.Job) bool {
	for _, p := range s.cfg.Machine.Partitions {
		if s.eligible(j, p) {
			return true
		}
	}
	return false
}

// eligible reports whether partition p can ever run job j: enough nodes,
// and (in oracle mode) a window long enough for the request.
func (s *Scheduler) eligible(j *job.Job, p *cluster.Partition) bool {
	if j.Nodes > p.Nodes {
		return false
	}
	if s.cfg.Oracle && j.Request > p.Avail.MaxWindow() {
		return false
	}
	if !s.cfg.Oracle && s.cfg.PredictedWindow > 0 && !s.alwaysOn(p) &&
		j.Request > s.cfg.PredictedWindow {
		return false
	}
	return true
}

// enqueue inserts a job keeping FCFS (queue time, ID) order. Arrivals
// come in time order so this is O(1) amortized; requeues binary-search.
func (s *Scheduler) enqueue(j *job.Job) {
	n := len(s.queue)
	if n == 0 || s.queueLess(s.queue[n-1], j) {
		s.queue = append(s.queue, j)
	} else {
		i := sort.Search(n, func(i int) bool { return !s.queueLess(s.queue[i], j) })
		s.queue = append(s.queue, nil)
		copy(s.queue[i+1:], s.queue[i:])
		s.queue[i] = j
	}
	if len(s.queue) > s.peakQueue {
		s.peakQueue = len(s.queue)
	}
	s.tracer.Trace(obs.Event{Time: s.eng.Now(), Kind: obs.EvEnqueue, Job: j.ID, Nodes: j.Nodes, Detail: float64(len(s.queue))})
}

func less(a, b *job.Job) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// queueTime is the time a job queues at: its submission, unless the
// requeue-to-back policy pushed it behind jobs submitted before its kill.
func (s *Scheduler) queueTime(j *job.Job) sim.Time {
	if len(s.queueAt) > 0 {
		if t, ok := s.queueAt[j.ID]; ok {
			return t
		}
	}
	return j.Submit
}

// queueLess is the queue's total order. With an empty queueAt map it is
// exactly less(), preserving fault-free behavior.
func (s *Scheduler) queueLess(a, b *job.Job) bool {
	at, bt := s.queueTime(a), s.queueTime(b)
	if at != bt {
		return at < bt
	}
	return a.ID < b.ID
}

// requestPass coalesces scheduling passes so that many events at one
// instant trigger a single pass.
func (s *Scheduler) requestPass(now sim.Time) {
	if s.passSet && s.passAt == now {
		return
	}
	s.passSet = true
	s.passAt = now
	s.schedule(pendingEvent{Kind: evPass, At: now, Prio: sim.PrioSchedule})
}

// pass is one scheduling cycle: start jobs in queue order, reserve for
// the first blocked job, then backfill.
func (s *Scheduler) pass(now sim.Time) {
	s.passes++
	if s.cfg.Policy == WFP {
		s.sortWFP(now)
	}

	// Phase 1: start queue-head jobs while they fit somewhere.
	for len(s.queue) > 0 {
		j := s.queue[0]
		p := s.bestStart(j, now)
		if p == nil {
			break
		}
		if !s.start(j, p, now, false) {
			return
		}
		s.queue = s.queue[1:]
	}
	if len(s.queue) == 0 || s.cfg.DisableBackfill {
		return
	}

	// Phase 2: reservation for the first blocked job (EASY).
	head := s.queue[0]
	resPart, resTime := s.earliestStartAnywhere(head, now)
	if resPart == nil {
		// Head can never start (should not happen for eligible jobs);
		// leave it queued — a later event may change the machine.
		return
	}
	if s.resJob != head.ID || s.resTime != resTime {
		s.resJob, s.resTime = head.ID, resTime
		s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvReserve, Job: head.ID,
			Partition: resPart.Name, Nodes: head.Nodes, Detail: float64(resTime)})
	}
	extra := s.extraNodesAt(resPart, resTime, head)

	// Phase 3: backfill — later jobs may start now if they cannot delay
	// the reservation.
	depth := s.cfg.BackfillDepth
	if depth <= 0 || depth > len(s.queue)-1 {
		depth = len(s.queue) - 1
	}
	i := 1
	for scanned := 0; scanned < depth && i < len(s.queue); scanned++ {
		j := s.queue[i]
		p := s.backfillStart(j, now, resPart, resTime, extra)
		if p == nil {
			i++
			continue
		}
		if !s.start(j, p, now, true) {
			return
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		if p == resPart {
			// The backfilled job changed the reserved partition's free
			// pool; recompute the spare capacity guard.
			extra = s.extraNodesAt(resPart, resTime, head)
		}
	}
}

// sortWFP reorders the queue by descending WFP score. Scores are
// precomputed once per pass; the order drifts slowly between passes, so
// the adaptive sort runs near O(n) on the almost-sorted queue.
func (s *Scheduler) sortWFP(now sim.Time) {
	if cap(s.scores) < len(s.queue) {
		s.scores = make([]float64, len(s.queue))
	}
	s.scores = s.scores[:len(s.queue)]
	for i, j := range s.queue {
		wait := float64(now - j.Submit)
		if wait < 0 {
			wait = 0
		}
		r := wait / float64(j.Request)
		s.scores[i] = r * r * r * float64(j.Nodes)
	}
	sort.Sort(&wfpSorter{s.queue, s.scores})
}

// wfpSorter sorts jobs and their scores together, descending by score
// with FCFS tie-break (a deterministic total order, so an unstable sort
// is fine).
type wfpSorter struct {
	jobs   []*job.Job
	scores []float64
}

func (w *wfpSorter) Len() int { return len(w.jobs) }

func (w *wfpSorter) Less(a, b int) bool {
	if w.scores[a] != w.scores[b] {
		return w.scores[a] > w.scores[b]
	}
	return less(w.jobs[a], w.jobs[b])
}

func (w *wfpSorter) Swap(a, b int) {
	w.jobs[a], w.jobs[b] = w.jobs[b], w.jobs[a]
	w.scores[a], w.scores[b] = w.scores[b], w.scores[a]
}

// bestStart returns the partition on which j can start right now, choosing
// the one with the largest free fraction (this balances load across Mira
// and ZCCloud, the paper's "distributes jobs equally"). Nil if none.
func (s *Scheduler) bestStart(j *job.Job, now sim.Time) *cluster.Partition {
	var best *cluster.Partition
	bestFrac := -1.0
	for _, p := range s.cfg.Machine.Partitions {
		if !s.canStartNow(j, p, now) {
			continue
		}
		frac := float64(p.Free()) / float64(p.Nodes)
		if frac > bestFrac {
			bestFrac = frac
			best = p
		}
	}
	return best
}

// canStartNow checks nodes and availability for an immediate start.
func (s *Scheduler) canStartNow(j *job.Job, p *cluster.Partition, now sim.Time) bool {
	if !s.eligible(j, p) || j.Nodes > p.Free() {
		return false
	}
	w, up := p.Avail.WindowAt(now)
	if !up {
		return false
	}
	if s.cfg.Oracle {
		if now+s.attemptRequest(j) > w.End {
			return false
		}
	} else if s.cfg.Predictor != nil && !s.alwaysOn(p) {
		// Predictive admission against the assumed window end.
		if now+s.attemptRequest(j) > s.cfg.Predictor.PredictedEnd(w.Start, now) {
			return false
		}
	}
	return true
}

func (s *Scheduler) alwaysOn(p *cluster.Partition) bool {
	_, ok := p.Avail.(availability.AlwaysOn)
	return ok
}

// stretch is the wall-clock inflation from checkpoint write-out: a job
// doing W seconds of work stalls W/interval times for overhead each.
func (s *Scheduler) stretch() float64 {
	if s.cfg.Oracle || s.cfg.CheckpointInterval <= 0 || s.cfg.CheckpointOverhead <= 0 {
		return 1
	}
	return 1 + float64(s.cfg.CheckpointOverhead)/float64(s.cfg.CheckpointInterval)
}

// attemptRuntime is the wall-clock a fresh attempt of j needs: remaining
// work after checkpointed progress, inflated by checkpoint overhead.
func (s *Scheduler) attemptRuntime(j *job.Job) sim.Duration {
	rem := j.Runtime - j.Progress
	if rem < 0 {
		rem = 0
	}
	return sim.Duration(float64(rem) * s.stretch())
}

// attemptRequest is the walltime the scheduler budgets for an attempt.
func (s *Scheduler) attemptRequest(j *job.Job) sim.Duration {
	rem := j.Request - j.Progress
	if rem < j.Runtime-j.Progress {
		rem = j.Runtime - j.Progress
	}
	if rem < 0 {
		rem = 0
	}
	return sim.Duration(float64(rem) * s.stretch())
}

// backfillStart returns a partition where j may start now without delaying
// the reservation (resPart, resTime) of the head job; nil if none.
func (s *Scheduler) backfillStart(j *job.Job, now sim.Time, resPart *cluster.Partition, resTime sim.Time, extra int) *cluster.Partition {
	var best *cluster.Partition
	bestFrac := -1.0
	for _, p := range s.cfg.Machine.Partitions {
		if !s.canStartNow(j, p, now) {
			continue
		}
		if p == resPart {
			// EASY conditions: finish before the reservation, or use only
			// nodes the reservation leaves spare.
			if now+s.attemptRequest(j) > resTime && j.Nodes > extra {
				continue
			}
		}
		frac := float64(p.Free()) / float64(p.Nodes)
		if frac > bestFrac {
			bestFrac = frac
			best = p
		}
	}
	return best
}

// start launches j on p at now and schedules its completion. backfill
// marks launches that jumped the queue via EASY backfill. A false return
// means the allocation failed — a scheduler invariant broke — and the
// error is latched into s.err for Run to surface.
func (s *Scheduler) start(j *job.Job, p *cluster.Partition, now sim.Time, backfill bool) bool {
	if err := p.Allocate(j.Nodes); err != nil {
		s.err = fmt.Errorf("sched: start job %d: %w", j.ID, err)
		return false
	}
	if len(s.queueAt) > 0 {
		delete(s.queueAt, j.ID)
	}
	j.Started = true
	j.Start = now
	j.Partition = p.Name
	s.started++
	kind := obs.EvStart
	if backfill {
		s.backfilled++
		kind = obs.EvBackfillStart
	}
	s.tracer.Trace(obs.Event{Time: now, Kind: kind, Job: j.ID, Partition: p.Name,
		Nodes: j.Nodes, Detail: float64(now - j.Submit)})
	if j.ID == s.resJob {
		s.resJob = -1
		s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvReserveClear, Job: j.ID, Partition: p.Name})
	}
	end := now + s.attemptRuntime(j)
	rj := &runningJob{j: j, p: p, rel: s.releaseOf(j, p)}
	rj.end = s.schedule(pendingEvent{Kind: evFinish, At: end, Prio: sim.PrioRelease, Job: j.ID})
	s.running[j.ID] = rj
	s.addRelease(rj)
	return true
}

// releaseOf computes a started job's release-index entry on p. Both
// times depend only on the job's start, its checkpointed progress and
// p's availability model, none of which change while the job runs.
func (s *Scheduler) releaseOf(j *job.Job, p *cluster.Partition) release {
	r := release{at: j.Start + s.attemptRequest(j), winEnd: infTime, nodes: j.Nodes, job: j.ID}
	if w, ok := p.Avail.WindowAt(j.Start); ok {
		r.winEnd = w.End
	}
	return r
}

// addRelease inserts rj into its partition's release index.
func (s *Scheduler) addRelease(rj *runningJob) {
	rels := s.releases[rj.p]
	i, _ := slices.BinarySearchFunc(rels, rj.rel, cmpRelease)
	s.releases[rj.p] = slices.Insert(rels, i, rj.rel)
}

// dropRelease removes rj from its partition's release index. A missing
// entry means the index diverged from the running set; the error is
// latched for Run to surface.
func (s *Scheduler) dropRelease(rj *runningJob) {
	rels := s.releases[rj.p]
	i, ok := slices.BinarySearchFunc(rels, rj.rel, cmpRelease)
	if !ok {
		s.fail(fmt.Errorf("sched: job %d missing from the release index of %q", rj.j.ID, rj.p.Name))
		return
	}
	s.releases[rj.p] = slices.Delete(rels, i, i+1)
}

// finish completes a running job, releasing its nodes.
func (s *Scheduler) finish(rj *runningJob, now sim.Time) {
	j := rj.j
	rj.p.Release(j.Nodes)
	delete(s.running, j.ID)
	s.dropRelease(rj)
	j.Completed = true
	j.End = now
	s.done++
	s.nodeHrs[rj.p.Name] += float64(j.Nodes) * (now - j.Start).Hours()
	s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvFinish, Job: j.ID, Partition: rj.p.Name,
		Nodes: j.Nodes, Detail: float64(j.Wait())})
	if now > s.lastEnd {
		s.lastEnd = now
	}
	s.requestPass(now)
}

// windowEnd (kill/requeue mode only) kills jobs running on a partition
// whose power just went away and resubmits them.
func (s *Scheduler) windowEnd(p *cluster.Partition, now sim.Time) {
	s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvWindowDown, Job: -1, Partition: p.Name, Nodes: p.Nodes})
	killed := slices.Clone(s.releases[p]) // kill edits the index
	s.cfg.Log.Debug("window down", "sim_hours", now.Hours(), "partition", p.Name, "killed", len(killed))
	// Deterministic order: by job ID.
	slices.SortFunc(killed, func(a, b release) int { return cmp.Compare(a.job, b.job) })
	for _, r := range killed {
		s.kill(s.running[r.job], now)
	}
	if len(killed) > 0 {
		s.requestPass(now)
	}
}

// kill terminates one running job's attempt and applies the recovery
// policy: checkpoint credit, then requeue (front or back, possibly after
// a backoff delay) or abandonment once the retry budget is spent.
func (s *Scheduler) kill(rj *runningJob, now sim.Time) {
	j := rj.j
	s.eng.Cancel(rj.end)
	rj.p.Release(j.Nodes)
	delete(s.running, j.ID)
	s.dropRelease(rj)
	// Account the attempt's node-hours to the partition (it did consume
	// power) whether or not the work survives.
	s.nodeHrs[rj.p.Name] += float64(j.Nodes) * (now - j.Start).Hours()
	s.killed++
	s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvKill, Job: j.ID, Partition: rj.p.Name,
		Nodes: j.Nodes, Detail: float64(now - j.Start)})
	if iv := s.cfg.CheckpointInterval; iv > 0 {
		// Work up to the last completed checkpoint survives.
		work := sim.Duration(float64(now-j.Start) / s.stretch())
		saved := sim.Duration(int64(work/iv)) * iv
		j.Progress += saved
		if j.Progress > j.Runtime {
			j.Progress = j.Runtime
		}
	}
	j.Started = false
	j.Partition = ""
	j.Requeues++
	inj := s.cfg.Faults
	if inj != nil && inj.Abandon(j.Requeues) {
		j.Abandoned = true
		s.abandoned++
		if len(s.queueAt) > 0 {
			delete(s.queueAt, j.ID)
		}
		s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvAbandon, Job: j.ID,
			Nodes: j.Nodes, Detail: float64(j.Requeues)})
		s.cfg.Log.Debug("job abandoned", "sim_hours", now.Hours(), "job", j.ID, "requeues", j.Requeues)
		return
	}
	s.requeued++
	s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvRequeue, Job: j.ID,
		Nodes: j.Nodes, Detail: float64(j.Requeues)})
	var delay sim.Duration
	if inj != nil {
		delay = inj.RetryDelayFor(j.ID, j.Requeues)
		if inj.Config().Policy == faults.RequeueBack {
			if s.queueAt == nil {
				s.queueAt = make(map[int]sim.Time)
			}
			s.queueAt[j.ID] = now + delay
		}
	}
	if delay > 0 {
		// Backoff: the job re-enters the queue only after the delay.
		s.backoff++
		s.schedule(pendingEvent{Kind: evRequeue, At: now + delay, Prio: sim.PrioArrival, Job: j.ID})
		return
	}
	s.enqueue(j)
}

// nodeFail handles one injected node-failure event: nodes leave service
// (killing the fewest jobs needed to free them) until their repair.
func (s *Scheduler) nodeFail(p *cluster.Partition, o faults.Outage, now sim.Time) {
	n := o.Nodes
	if maxDown := p.Nodes - s.failOffline[p.Name]; n > maxDown {
		n = maxDown // the excess nodes are already down
	}
	if n <= 0 {
		return
	}
	s.failOffline[p.Name] += n
	s.nodeFailures++
	s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvNodeFail, Job: -1, Partition: p.Name,
		Nodes: n, Detail: float64(o.Repair)})
	s.cfg.Log.Debug("nodes failed", "sim_hours", now.Hours(), "partition", p.Name,
		"nodes", n, "repair_hours", sim.Time(o.Repair).Hours())
	s.applyCapacity(p, now)
	s.schedule(pendingEvent{Kind: evRepair, At: now + o.Repair, Prio: sim.PrioRelease,
		Part: p.Name, Nodes: n})
	s.requestPass(now)
}

// nodeRepair returns repaired nodes to service.
func (s *Scheduler) nodeRepair(p *cluster.Partition, n int, now sim.Time) {
	s.failOffline[p.Name] -= n
	s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvNodeRepair, Job: -1, Partition: p.Name, Nodes: n})
	s.cfg.Log.Debug("nodes repaired", "sim_hours", now.Hours(), "partition", p.Name, "nodes", n)
	s.applyCapacity(p, now)
	s.requestPass(now)
}

// windowRestore starts a believed window under the fate path: any nodes
// the previous window end took down come back, and the scheduler sees the
// same window-up signal it would without faults.
func (s *Scheduler) windowRestore(p *cluster.Partition, believedEnd sim.Time, now sim.Time) {
	if s.windowOffline[p.Name] != 0 {
		s.windowOffline[p.Name] = 0
		s.applyCapacity(p, now)
	}
	s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvWindowUp, Job: -1, Partition: p.Name, Nodes: p.Nodes, Detail: float64(believedEnd)})
	s.requestPass(now)
}

// windowFateEnd ends a window at its perturbed actual end. A brownout
// leaves f.SurvivingNodes powered — the scheduler sheds only enough jobs
// to fit them; a full outage takes the whole partition down.
func (s *Scheduler) windowFateEnd(p *cluster.Partition, f faults.WindowFate, now sim.Time) {
	surviving := f.SurvivingNodes
	if surviving >= p.Nodes {
		surviving = p.Nodes - 1
	}
	if surviving < 0 {
		surviving = 0
	}
	if f.Brownout() {
		s.brownouts++
		s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvBrownout, Job: -1, Partition: p.Name,
			Nodes: surviving, Detail: float64(surviving) / float64(p.Nodes)})
		s.cfg.Log.Debug("brownout", "sim_hours", now.Hours(), "partition", p.Name,
			"surviving", surviving, "of", p.Nodes)
	} else {
		s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvWindowDown, Job: -1, Partition: p.Name, Nodes: p.Nodes})
	}
	s.windowOffline[p.Name] = p.Nodes - surviving
	s.applyCapacity(p, now)
	s.requestPass(now)
}

// applyCapacity reconciles the partition's offline pool with the fault
// layer's bookkeeping (failed nodes + window-down nodes), killing the
// fewest jobs necessary when the free pool cannot cover the shrink.
func (s *Scheduler) applyCapacity(p *cluster.Partition, now sim.Time) {
	want := s.failOffline[p.Name] + s.windowOffline[p.Name]
	if want > p.Nodes {
		want = p.Nodes
	}
	cur := p.Offline()
	switch {
	case want > cur:
		need := want - cur
		if p.Free() < need {
			s.killFewest(p, need-p.Free(), now)
		}
		if need > p.Free() {
			need = p.Free() // kills are job-quantized; never over-claim
		}
		if need > 0 {
			if err := p.TakeOffline(need); err != nil && s.err == nil {
				s.err = fmt.Errorf("sched: fault capacity on %q: %w", p.Name, err)
			}
		}
	case want < cur:
		p.BringOnline(cur - want)
	}
}

// killFewest kills jobs on p until at least deficit nodes are released,
// preferring the largest jobs (fewest victims); ties break by job ID for
// determinism.
func (s *Scheduler) killFewest(p *cluster.Partition, deficit int, now sim.Time) {
	victims := slices.Clone(s.releases[p]) // kill edits the index
	slices.SortFunc(victims, func(a, b release) int {
		if a.nodes != b.nodes {
			return cmp.Compare(b.nodes, a.nodes)
		}
		return cmp.Compare(a.job, b.job)
	})
	freed := 0
	for _, r := range victims {
		if freed >= deficit {
			break
		}
		freed += r.nodes
		s.kill(s.running[r.job], now)
	}
}

// earliestStartAnywhere returns the partition and time of the earliest
// feasible start for j at or after now, or (nil, inf) if none exists.
func (s *Scheduler) earliestStartAnywhere(j *job.Job, now sim.Time) (*cluster.Partition, sim.Time) {
	var bestP *cluster.Partition
	bestT := infTime
	for _, p := range s.cfg.Machine.Partitions {
		t := s.earliestStart(j, p, now)
		if t < bestT {
			bestT = t
			bestP = p
		}
	}
	return bestP, bestT
}

// earliestStart computes the earliest time >= now at which job j could
// start on partition p, assuming running jobs hold their nodes until their
// requested end and no further arrivals. Returns infTime if never.
func (s *Scheduler) earliestStart(j *job.Job, p *cluster.Partition, now sim.Time) sim.Time {
	s.earliestCalls++
	if !s.eligible(j, p) {
		return infTime
	}
	const maxWindows = 400 // availability search horizon
	t := now
	for iter := 0; iter < maxWindows; iter++ {
		w, ok := p.Avail.NextUp(t)
		if !ok || w.Start >= s.deadline {
			return infTime
		}
		lb := t
		if w.Start > lb {
			lb = w.Start
		}
		req := s.attemptRequest(j)
		fits := func(at sim.Time) bool {
			if s.cfg.Oracle {
				return at+req <= w.End
			}
			if s.cfg.Predictor != nil && !s.alwaysOn(p) {
				return at+req <= s.cfg.Predictor.PredictedEnd(w.Start, at)
			}
			return true
		}
		if w.Start > now {
			// Future window: in oracle mode the partition is empty at
			// w.Start (everything drained); in kill mode jobs are killed
			// at window ends, so it is also empty.
			if fits(lb) {
				return lb
			}
			t = w.End
			continue
		}
		// Current window: replay node releases of running jobs in
		// release-index order. A release at or after w.End lifts lb to
		// w.End, where no start is possible, so the walk stops there; jobs
		// that would be killed at w.End in non-oracle mode lie past it too.
		// Same-instant releases may come in any order without changing the
		// start found.
		free := p.Free()
		if free >= j.Nodes && fits(lb) {
			return lb
		}
		n := 0 // releases replayed
		for _, r := range s.releases[p] {
			if r.at >= w.End {
				break
			}
			n++
			free += r.nodes
			if r.at > lb {
				lb = r.at
			}
			if free >= j.Nodes && fits(lb) && lb < w.End {
				s.releasesScanned += n
				return lb
			}
		}
		s.releasesScanned += n
		t = w.End
	}
	return infTime
}

// extraNodesAt returns the nodes that remain free on p at time resTime
// after placing the reserved job there — the spare capacity backfill may
// consume without delaying the reservation. In non-oracle mode a job
// releases its nodes no later than the end of the window it started in.
func (s *Scheduler) extraNodesAt(p *cluster.Partition, resTime sim.Time, reserved *job.Job) int {
	free := p.Free()
	rels := s.releases[p]
	s.releasesScanned += len(rels)
	for _, r := range rels {
		end := r.at
		if !s.cfg.Oracle && end > r.winEnd {
			end = r.winEnd
		}
		if end <= resTime {
			free += r.nodes
		}
	}
	extra := free - reserved.Nodes
	if extra < 0 {
		extra = 0
	}
	return extra
}

// Jobs returns every submitted job, ascending by ID, with whatever
// outcome state the run has produced so far. Restored runs own their
// job copies (deserialized from the snapshot), so callers that need
// outcomes after a resumed run read them here rather than from the
// original trace.
func (s *Scheduler) Jobs() []*job.Job {
	out := make([]*job.Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// QueueLen returns the current queue length (for tests and monitoring).
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// RunningCount returns the number of jobs currently executing.
func (s *Scheduler) RunningCount() int { return len(s.running) }

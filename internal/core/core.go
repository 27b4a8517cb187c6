// Package core assembles the paper's system under study: a base
// supercomputer (Mira) optionally extended with an intermittent ZCCloud
// partition, simulates a workload trace through the shared batch
// scheduler, and extracts the metrics the paper reports — average job
// wait time (overall, by job-size bin, by capability/capacity class, by
// on-time/late class), throughput, and per-partition utilization.
//
// This is the top of the stack: availability models come from
// internal/availability (periodic) or internal/stranded (SP-driven),
// workloads from internal/workload, and scheduling from internal/sched.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/faults"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/sched"
	"zccloud/internal/sim"
)

// Partition names used throughout reporting.
const (
	MiraPartition = "mira"
	ZCPartition   = "zc"
)

// DutyAvailability is a ZCCloud partition's power at a daily duty
// factor: always on at a duty of 1 or more, otherwise up for that
// fraction of each day from phase on.
func DutyAvailability(duty float64, phase sim.Time) availability.Model {
	if duty >= 1 {
		return availability.AlwaysOn{}
	}
	return availability.NewPeriodic(duty, phase)
}

// FaultKnobs are the flat fault-injection settings of one run request,
// as zccsim's flags and a zccd run spec carry them; times are in hours.
type FaultKnobs struct {
	Seed             int64
	MTBFHours        float64
	BrownoutProb     float64
	ForecastErrHours float64
	RetryLimit       int
	BackoffHours     float64
	BackoffJitter    bool
}

// Config arms the fault injector when any knob other than Seed and
// BackoffJitter is set, and is nil otherwise. Node failures strike the
// ZC partition when the system has one (hasZC), the base system
// otherwise, each taking 1/64 of the base system's nodes (at least one).
func (k FaultKnobs) Config(miraNodes int, hasZC bool) *faults.Config {
	if k.MTBFHours <= 0 && k.BrownoutProb <= 0 && k.ForecastErrHours <= 0 &&
		k.RetryLimit <= 0 && k.BackoffHours <= 0 {
		return nil
	}
	fc := &faults.Config{
		Seed:          k.Seed,
		ForecastErrSD: sim.Duration(k.ForecastErrHours) * sim.Hour,
		BrownoutProb:  k.BrownoutProb,
		RetryLimit:    k.RetryLimit,
		Backoff:       sim.Duration(k.BackoffHours) * sim.Hour,
		BackoffJitter: k.BackoffJitter,
	}
	if k.MTBFHours > 0 {
		part := MiraPartition
		if hasZC {
			part = ZCPartition
		}
		fc.Nodes = map[string]faults.NodeFailures{
			part: {MTBF: sim.Duration(k.MTBFHours) * sim.Hour, NodesPerFailure: max(miraNodes/64, 1)},
		}
	}
	return fc
}

// SystemConfig describes a Mira-ZCCloud deployment (paper, Figure 4).
type SystemConfig struct {
	// MiraNodes is the base system size; defaults to 49,152.
	MiraNodes int
	// ZCFactor sizes the ZCCloud partition as a multiple of Mira
	// (the paper's 1xMira, 2xMira, 4xMira). Zero means no ZCCloud.
	ZCFactor float64
	// ZCAvail drives the ZCCloud partition's power. Required when
	// ZCFactor > 0.
	ZCAvail availability.Model
	// Oracle selects the paper's window-aware scheduling; NonOracle
	// (kill/requeue) is the sensitivity variant. Default true is
	// expressed as !NonOracle to keep the zero value faithful.
	NonOracle bool
	// BackfillDepth bounds the scheduler's backfill scan (0 = unlimited).
	BackfillDepth int
	// DisableBackfill selects plain FCFS (ablation).
	DisableBackfill bool
	// PredictedWindow enables predictive admission in non-oracle mode:
	// the scheduler assumes every ZC window lasts this long from its
	// start (paper Section VIII's prediction direction).
	PredictedWindow sim.Duration
	// Predictor supersedes PredictedWindow with an age-aware window-end
	// predictor (e.g. internal/forecast's hazard model).
	Predictor sched.WindowPredictor
	// FCFS selects plain first-come-first-served queue ordering instead
	// of the default WFP utility (Cobalt's production policy at ALCF,
	// which favors long-waiting and capability jobs).
	FCFS bool
	// CheckpointInterval enables checkpoint/restart in non-oracle mode:
	// killed jobs resume from their last checkpoint.
	CheckpointInterval sim.Duration
	// CheckpointOverhead is the wall-clock stall per checkpoint taken.
	CheckpointOverhead sim.Duration
	// Faults, when non-nil, configures fault injection (node failures,
	// forecast error, brownouts) and the recovery policy. A config with
	// no active dimension leaves the run identical to a fault-free one.
	Faults *faults.Config
}

func (c SystemConfig) withDefaults() SystemConfig {
	if c.MiraNodes == 0 {
		c.MiraNodes = cluster.MiraNodes
	}
	return c
}

// Validate reports configuration errors.
func (c SystemConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.MiraNodes <= 0:
		return fmt.Errorf("core: mira nodes %d <= 0", c.MiraNodes)
	case c.ZCFactor < 0:
		return fmt.Errorf("core: zc factor %v < 0", c.ZCFactor)
	case c.ZCFactor > 0 && c.ZCAvail == nil:
		return fmt.Errorf("core: ZCFactor %v without an availability model", c.ZCFactor)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// BuildMachine constructs the cluster for a system config.
func BuildMachine(c SystemConfig) (*cluster.Machine, error) {
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	parts := []*cluster.Partition{
		cluster.NewPartition(MiraPartition, c.MiraNodes, availability.AlwaysOn{}),
	}
	if c.ZCFactor > 0 {
		zcNodes := int(math.Round(c.ZCFactor * float64(c.MiraNodes)))
		parts = append(parts, cluster.NewPartition(ZCPartition, zcNodes, c.ZCAvail))
	}
	return cluster.NewMachine(parts...), nil
}

// RunConfig is one simulation run.
type RunConfig struct {
	System SystemConfig
	// Trace is the workload; jobs are reset before the run and carry
	// their outcomes afterwards. Resume needs the same trace the
	// snapshot's run had.
	Trace *job.Trace
	// Deadline bounds the run; zero defaults to the trace span plus 90
	// days of drain time.
	Deadline sim.Time
	// Obs carries the telemetry and run-control hooks (event tracer,
	// metrics registry, progress reporter, cooperative interrupt,
	// invariant checking); the zero value disables all of them.
	Obs obs.Options
	// StopAt, when positive, interrupts the run before any event later
	// than this simulated time — the deterministic snapshot point behind
	// zccsim's -snapshot-at.
	StopAt sim.Time
}

// Interrupted is returned by Run and Resume when the run was paused by
// Obs.Interrupt or StopAt. It carries the scheduler snapshot taken at
// the pause point; persist it (internal/persist) and pass it to Resume
// to continue the run byte-identically.
type Interrupted struct {
	Snapshot *sched.Snapshot
}

func (e *Interrupted) Error() string {
	return "core: run interrupted; snapshot captured"
}

// Unwrap lets errors.Is(err, sched.ErrInterrupted) recognize the pause.
func (e *Interrupted) Unwrap() error { return sched.ErrInterrupted }

// SizeBin is one job-size bucket of Figure 5.
type SizeBin struct {
	Label      string
	MaxNodes   int // inclusive upper bound of the bin
	Jobs       int
	AvgWaitHrs float64
}

// sizeBinBounds are the Figure 5 node-count bins (upper bounds).
var sizeBinBounds = []int{511, 1024, 2048, 4096, 8192, 16384, 32768, 49152}

// Metrics is everything the paper's figures read off one run.
type Metrics struct {
	Completed  int
	Unfinished int
	Unrunnable int
	// Fault-layer outcomes (zero without fault injection).
	Abandoned    int
	Killed       int
	NodeFailures int
	Brownouts    int
	// BackingOff counts jobs still waiting out a retry backoff when the
	// run hit its deadline: starved by the backoff schedule, neither
	// queued nor running, and included in Unfinished.
	BackingOff int

	// WorkloadCompleted is false when the system lacked the node-hour
	// capacity to finish the trace by the deadline (the paper's "X").
	WorkloadCompleted bool

	AvgWaitHrs float64
	P50WaitHrs float64
	P90WaitHrs float64
	MaxWaitHrs float64

	// AvgWaitBySize has one entry per Figure 5 size bin.
	AvgWaitBySize []SizeBin
	// Class splits: capability (>8k nodes) vs capacity.
	AvgWaitCapabilityHrs float64
	AvgWaitCapacityHrs   float64
	// Timeliness splits (only populated when a ZC partition exists).
	AvgWaitOnTimeHrs float64
	AvgWaitLateHrs   float64
	OnTimeJobs       int
	LateJobs         int

	// ThroughputJobsPerDay is completed jobs per simulated day of the
	// workload span.
	ThroughputJobsPerDay float64
	// NodeHoursByPartition is delivered node-hours per partition.
	NodeHoursByPartition map[string]float64
	// UtilizationByPartition is delivered node-hours over available
	// node-hours (availability-adjusted capacity) per partition.
	UtilizationByPartition map[string]float64
	// ZCShareOfWork is the fraction of delivered node-hours that ran on
	// ZCCloud.
	ZCShareOfWork float64

	MakespanDays float64
}

// buildSched assembles the scheduler configuration shared by Run and
// Resume: machine, policy, fault injector, and the telemetry/control
// hooks.
func buildSched(cfg RunConfig, sys SystemConfig) (sched.Config, *cluster.Machine, error) {
	machine, err := BuildMachine(sys)
	if err != nil {
		return sched.Config{}, nil, err
	}
	policy := sched.WFP
	if sys.FCFS {
		policy = sched.FCFS
	}
	// Run correlation: bind the run ID to every log line the scheduler
	// emits and stamp it on every trace event, so a run's full lifecycle
	// is reconstructable from either stream by run_id alone.
	logger := cfg.Obs.Log
	if cfg.Obs.RunID != "" {
		logger = logger.With("run_id", cfg.Obs.RunID)
	}
	scfg := sched.Config{
		Machine:            machine,
		Policy:             policy,
		Oracle:             !sys.NonOracle,
		BackfillDepth:      sys.BackfillDepth,
		DisableBackfill:    sys.DisableBackfill,
		PredictedWindow:    sys.PredictedWindow,
		Predictor:          sys.Predictor,
		CheckpointInterval: sys.CheckpointInterval,
		CheckpointOverhead: sys.CheckpointOverhead,
		Tracer:             obs.TagRun(cfg.Obs.Tracer, cfg.Obs.RunID),
		Log:                logger,
		Metrics:            cfg.Obs.Metrics,
		Progress:           cfg.Obs.Progress,
		Status:             cfg.Obs.Status,
		Check:              cfg.Obs.Check,
		Interrupt:          cfg.Obs.Interrupt,
		StopAt:             cfg.StopAt,
	}
	if sys.ZCFactor > 0 {
		scfg.Classify = sys.ZCAvail
	}
	if sys.Faults != nil {
		inj, err := faults.New(*sys.Faults)
		if err != nil {
			return sched.Config{}, nil, fmt.Errorf("core: %w", err)
		}
		scfg.Faults = inj
	}
	return scfg, machine, nil
}

// Run simulates one configuration and extracts metrics. When the run is
// paused (Obs.Interrupt or StopAt) the error is an *Interrupted carrying
// a snapshot for Resume.
func Run(cfg RunConfig) (*Metrics, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: cancelling ctx pauses the
// simulation at the next event-stride boundary exactly as Obs.Interrupt
// does, returning an *Interrupted that carries a resume snapshot. An
// uncancellable context costs the hot loop nothing.
func RunContext(ctx context.Context, cfg RunConfig) (*Metrics, error) {
	return run(ctx, cfg, nil)
}

// Resume continues a run from a snapshot taken by an interrupted Run
// (or Resume). cfg must describe the same system and trace the snapshot
// came from — sched.Restore verifies the fingerprint and refuses a
// mismatch. As in Run, the trace's jobs carry their outcomes afterwards,
// and the continued run is byte-identical to one that was never
// interrupted.
func Resume(cfg RunConfig, snap *sched.Snapshot) (*Metrics, error) {
	return ResumeContext(context.Background(), cfg, snap)
}

// ResumeContext is Resume under a context; a resumed run can itself be
// cancelled and re-snapshotted any number of times.
func ResumeContext(ctx context.Context, cfg RunConfig, snap *sched.Snapshot) (*Metrics, error) {
	return run(ctx, cfg, snap)
}

// run is Run when snap is nil and Resume otherwise: it builds the
// scheduler over cfg.Trace, drives it to the deadline, and turns the
// outcome into Metrics, converting an interruption (Obs.Interrupt,
// StopAt, or ctx cancellation) into an *Interrupted error carrying the
// snapshot.
func run(ctx context.Context, cfg RunConfig, snap *sched.Snapshot) (*Metrics, error) {
	if cfg.Trace == nil || len(cfg.Trace.Jobs) == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	sys := cfg.System.withDefaults()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	span := cfg.Obs.Timings.Start("run.setup")
	scfg, machine, err := buildSched(cfg, sys)
	if err != nil {
		span.Stop()
		return nil, err
	}
	cfg.Trace.Reset()

	var s *sched.Scheduler
	deadline := cfg.Deadline
	if snap != nil {
		deadline = snap.Deadline
		s, err = sched.Restore(scfg, cfg.Trace, snap)
	} else {
		if deadline == 0 {
			_, last := cfg.Trace.Span()
			deadline = last + 90*sim.Day
		}
		s, err = sched.New(scfg)
		if err == nil {
			err = s.LoadTrace(cfg.Trace)
		}
	}
	span.Stop()
	if err != nil {
		return nil, err
	}

	logger := scfg.Log // the scheduler's logger, bound to the run ID
	logger.Info("run started", "jobs", len(cfg.Trace.Jobs), "deadline_days", float64(deadline)/float64(sim.Day))
	cfg.Obs.Status.SetPhase("simulate")
	span = cfg.Obs.Timings.Start("run.simulate")
	res, err := s.RunContext(ctx, deadline)
	span.Stop()
	if errors.Is(err, sched.ErrInterrupted) {
		snap, serr := s.Snapshot()
		if serr != nil {
			return nil, serr
		}
		logger.Info("run interrupted", "pending_events", len(snap.Pending))
		return nil, &Interrupted{Snapshot: snap}
	}
	if err != nil {
		logger.Error("run failed", "err", err.Error())
		return nil, err
	}
	span = cfg.Obs.Timings.Start("run.collect")
	defer span.Stop()
	m := collectMetrics(res, machine, cfg.Trace.Jobs, cfg.Obs)
	logger.Info("run finished", "completed", m.Completed, "unfinished", m.Unfinished,
		"makespan_days", m.MakespanDays, "avg_wait_hrs", m.AvgWaitHrs)
	return m, nil
}

// collectMetrics extracts everything the paper's figures read off one
// completed run from its result and its trace's jobs.
func collectMetrics(res sched.Result, machine *cluster.Machine, jobs []*job.Job, obsOpts obs.Options) *Metrics {
	var first, last sim.Time
	for i, j := range jobs {
		if i == 0 || j.Submit < first {
			first = j.Submit
		}
		if j.Submit > last {
			last = j.Submit
		}
	}

	m := &Metrics{
		Completed:            res.Completed,
		Unfinished:           res.Unfinished,
		Unrunnable:           res.Unrunnable,
		Abandoned:            res.Abandoned,
		BackingOff:           res.BackingOff,
		Killed:               res.Killed,
		NodeFailures:         res.NodeFailures,
		Brownouts:            res.Brownouts,
		WorkloadCompleted:    res.Unfinished == 0,
		NodeHoursByPartition: res.NodeHoursByPartition,
	}

	// Run-level metrics: completion counters and the wait-time
	// distribution (all handles are nil-safe no-ops without a registry).
	runScope := obsOpts.Metrics.Scope("run")
	runScope.Counter("simulations").Inc()
	runScope.Counter("jobs_completed").Add(int64(res.Completed))
	runScope.Counter("jobs_unfinished").Add(int64(res.Unfinished))
	runScope.Counter("jobs_unrunnable").Add(int64(res.Unrunnable))
	waitHist := runScope.Histogram("wait_hours", 0, 168, 42)

	waits := make([]float64, 0, res.Completed)
	var bySize []accum
	for range sizeBinBounds {
		bySize = append(bySize, accum{})
	}
	var capab, capac, onTime, late accum
	for _, j := range jobs {
		if !j.Completed {
			continue
		}
		w := j.Wait().Hours()
		waitHist.Observe(w)
		waits = append(waits, w)
		bin := sizeBinIndex(j.Nodes)
		bySize[bin].add(w)
		if j.Class() == job.ClassCapability {
			capab.add(w)
		} else {
			capac.add(w)
		}
		switch j.Timeliness {
		case job.OnTime:
			onTime.add(w)
		case job.Late:
			late.add(w)
		}
	}
	if len(waits) > 0 {
		sort.Float64s(waits)
		sum := 0.0
		for _, w := range waits {
			sum += w
		}
		m.AvgWaitHrs = sum / float64(len(waits))
		m.P50WaitHrs = waits[len(waits)/2]
		m.P90WaitHrs = waits[int(float64(len(waits))*0.9)]
		m.MaxWaitHrs = waits[len(waits)-1]
	}
	for i, b := range bySize {
		lo := 1
		if i > 0 {
			lo = sizeBinBounds[i-1] + 1
		}
		m.AvgWaitBySize = append(m.AvgWaitBySize, SizeBin{
			Label:      fmt.Sprintf("%d-%d", lo, sizeBinBounds[i]),
			MaxNodes:   sizeBinBounds[i],
			Jobs:       b.n,
			AvgWaitHrs: b.mean(),
		})
	}
	m.AvgWaitCapabilityHrs = capab.mean()
	m.AvgWaitCapacityHrs = capac.mean()
	m.AvgWaitOnTimeHrs = onTime.mean()
	m.AvgWaitLateHrs = late.mean()
	m.OnTimeJobs = onTime.n
	m.LateJobs = late.n

	spanDays := float64(last-first) / float64(sim.Day)
	if spanDays > 0 {
		m.ThroughputJobsPerDay = float64(res.Completed) / spanDays
	}
	m.MakespanDays = float64(res.Makespan) / float64(sim.Day)

	// Utilization: delivered node-hours over availability-adjusted
	// capacity across the active span [first, makespan].
	m.UtilizationByPartition = make(map[string]float64, len(machine.Partitions))
	activeEnd := res.Makespan
	if activeEnd <= first {
		activeEnd = last
	}
	var totalNH float64
	for _, p := range machine.Partitions {
		df := availability.DutyFactor(p.Avail, first, activeEnd)
		capNH := float64(p.Nodes) * (activeEnd - first).Hours() * df
		nh := res.NodeHoursByPartition[p.Name]
		totalNH += nh
		if capNH > 0 {
			m.UtilizationByPartition[p.Name] = nh / capNH
		}
	}
	if totalNH > 0 {
		m.ZCShareOfWork = res.NodeHoursByPartition[ZCPartition] / totalNH
	}
	return m
}

// sizeBinIndex maps a node count to its Figure 5 bin.
func sizeBinIndex(nodes int) int {
	for i, hi := range sizeBinBounds {
		if nodes <= hi {
			return i
		}
	}
	return len(sizeBinBounds) - 1
}

type accum struct {
	n   int
	sum float64
}

func (a *accum) add(x float64) { a.n++; a.sum += x }

func (a *accum) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Package zccloud is a simulation toolkit for studying stranded-power
// high-performance computing, reproducing "ZCCloud: Exploring Wasted
// Green Power for High-Performance Computing" (Yang & Chien, IPPS 2016).
//
// The toolkit covers the paper's full pipeline:
//
//   - synthesize production-like HPC workloads calibrated to the ALCF
//     Mira trace (GenerateWorkload);
//   - simulate batch scheduling on a Mira-class system extended with an
//     intermittent ZCCloud partition (Simulate), under periodic or
//     trace-driven availability;
//   - synthesize a MISO-like real-time power market — wind field, radial
//     grid, merit-order dispatch with congestion — and stream its
//     cleared-offer records (NewMarketDataset);
//   - extract stranded-power intervals under the paper's LMP[x] and
//     NetPrice[x] models and derive duty factors (NewSPAnalysis);
//   - run every table and figure of the paper's evaluation
//     (RunExperiment, Experiments).
//
// The sub-packages live under internal/; this package is the supported
// surface. All randomness is seeded: identical inputs give identical
// outputs.
package zccloud

import (
	"context"

	"zccloud/internal/availability"
	"zccloud/internal/core"
	"zccloud/internal/econ"
	"zccloud/internal/experiments"
	"zccloud/internal/faults"
	"zccloud/internal/forecast"
	"zccloud/internal/job"
	"zccloud/internal/miso"
	"zccloud/internal/obs"
	"zccloud/internal/persist"
	"zccloud/internal/powergrid"
	"zccloud/internal/sched"
	"zccloud/internal/sim"
	"zccloud/internal/stranded"
	"zccloud/internal/swf"
	"zccloud/internal/top500"
	"zccloud/internal/tracebin"
	"zccloud/internal/traceview"
	"zccloud/internal/workload"
)

// Time is simulated time in seconds since the simulation epoch.
type Time = sim.Time

// Time unit constants.
const (
	Second = sim.Second
	Minute = sim.Minute
	Hour   = sim.Hour
	Day    = sim.Day
)

// Job is one batch job with its simulation outcome.
type Job = job.Job

// Trace is an ordered collection of jobs.
type Trace = job.Trace

// ReadTraceCSV reads a job trace written by Trace.WriteCSV.
var ReadTraceCSV = job.ReadCSV

// SWFOptions control Standard Workload Format parsing.
type SWFOptions = swf.Options

// SWFHeader carries the metadata directives of an SWF file.
type SWFHeader = swf.Header

// SWFParseError locates a malformed SWF line (file, line number).
type SWFParseError = swf.ParseError

// SWFSkipReport counts data lines ParseSWF dropped and keeps the first
// few with reasons.
type SWFSkipReport = swf.SkipReport

// ParseSWF reads a Parallel Workloads Archive trace (SWF) into a job
// trace, so real production logs can drive the simulator.
var ParseSWF = swf.Parse

// WriteSWF emits a trace in SWF form for other workload tools.
var WriteSWF = swf.Write

// WorkloadConfig controls synthetic workload generation (see Table I of
// the paper for the calibration targets).
type WorkloadConfig = workload.Config

// Workload shapes.
const (
	Uniform = workload.Uniform
	Burst   = workload.Burst
)

// GenerateWorkload synthesizes an ALCF-like job trace.
func GenerateWorkload(cfg WorkloadConfig) (*Trace, error) { return workload.Generate(cfg) }

// ScaleWorkload scales a trace's node-hours by factor >= 1 the way the
// paper builds its NxWorkload variants.
func ScaleWorkload(tr *Trace, factor float64, seed int64) (*Trace, error) {
	return workload.ScaleTrace(tr, factor, seed)
}

// WorkloadStats summarizes a trace against the Table I columns.
type WorkloadStats = workload.Stats

// SummarizeWorkload computes WorkloadStats against a base system size.
func SummarizeWorkload(tr *Trace, systemNodes int) WorkloadStats {
	return workload.Summarize(tr, systemNodes)
}

// AvailabilityModel answers when a partition has power.
type AvailabilityModel = availability.Model

// Window is a half-open availability interval.
type Window = availability.Window

// Materialize lists a model's uptime windows clipped to [from, to).
var Materialize = availability.Materialize

// AlwaysOn is a partition that never loses power.
type AlwaysOn = availability.AlwaysOn

// Periodic is up for a fixed window every cycle (Section IV's model).
type Periodic = availability.Periodic

// NewPeriodic builds a daily periodic model from a duty factor in (0,1].
var NewPeriodic = availability.NewPeriodic

// IntervalTrace is availability given by explicit windows, e.g. stranded
// power intervals.
type IntervalTrace = availability.IntervalTrace

// NewIntervalTrace normalizes windows into a trace model.
var NewIntervalTrace = availability.NewIntervalTrace

// UnionAvailability returns the union of several models over a range —
// the availability of a multi-site ZCCloud.
var UnionAvailability = availability.Union

// MeasureDutyFactor returns the fraction of [from, to) a model is up.
var MeasureDutyFactor = availability.DutyFactor

// Partition names used by Simulate's machines.
const (
	MiraPartitionName = core.MiraPartition
	ZCPartitionName   = core.ZCPartition
)

// SystemConfig describes a Mira-ZCCloud deployment.
type SystemConfig = core.SystemConfig

// DutyAvailability is a ZCCloud partition's power at a daily duty
// factor: AlwaysOn at a duty of 1 or more, Periodic from phase otherwise.
var DutyAvailability = core.DutyAvailability

// FaultConfig configures fault injection: stochastic node failures,
// availability forecast error, brownouts, and the recovery policy
// (requeue order, bounded retries with backoff). Attach one to
// SystemConfig.Faults; a config with no active dimension leaves the run
// identical to a fault-free one.
type FaultConfig = faults.Config

// NodeFailureConfig is one partition's failure process: MTBF (exponential
// draws, or Weibull when a shape is set), mean repair time, and nodes
// taken down per failure.
type NodeFailureConfig = faults.NodeFailures

// FaultKnobs are zccsim's flat fault settings (hours); their Config
// method arms a FaultConfig the way zccsim and zccd do.
type FaultKnobs = core.FaultKnobs

// Requeue policies for killed jobs.
const (
	RequeueFront = faults.RequeueFront
	RequeueBack  = faults.RequeueBack
)

// FaultInjector holds validated fault schedules; same seed, same faults.
type FaultInjector = faults.Injector

// NewFaultInjector validates a FaultConfig and builds an injector.
var NewFaultInjector = faults.New

// YoungDalyInterval returns the Young/Daly optimal checkpoint interval
// √(2·δ·MTBF) for checkpoint overhead δ.
var YoungDalyInterval = faults.YoungDaly

// RunConfig is one scheduling simulation.
type RunConfig = core.RunConfig

// Metrics is the simulation outcome the paper's figures read.
type Metrics = core.Metrics

// Simulate runs one Mira-ZCCloud scheduling simulation.
func Simulate(cfg RunConfig) (*Metrics, error) { return core.Run(cfg) }

// SimulateContext is Simulate under a context: cancellation stops the
// run at an event boundary (within one poll stride) and returns an
// *InterruptedRun carrying a snapshot, exactly as an Interrupt hook
// would. A background context costs nothing over Simulate.
func SimulateContext(ctx context.Context, cfg RunConfig) (*Metrics, error) {
	return core.RunContext(ctx, cfg)
}

// Crash safety: a run stopped by RunConfig.StopAt or ObsOptions.Interrupt
// returns an *InterruptedRun error carrying a RunSnapshot; ResumeSimulation
// continues it — under the same system configuration and trace — to
// results byte-identical with an uninterrupted run.

// RunSnapshot is a versioned capture of a paused simulation: engine clock
// and counters, the jobs that have arrived, queue, running set, partition
// pools, fault state, and every pending event in deterministic order.
// Jobs yet to arrive stay in the run's trace, which is fingerprinted
// together with the system configuration.
type RunSnapshot = sched.Snapshot

// SnapshotVersion is the current RunSnapshot layout version; restore
// refuses snapshots written by any other version.
const SnapshotVersion = sched.SnapshotVersion

// InterruptedRun reports a simulation stopped at a safe boundary; it
// unwraps to ErrRunInterrupted and carries the snapshot to resume from.
type InterruptedRun = core.Interrupted

// ErrRunInterrupted is the sentinel under every interrupted-run error.
var ErrRunInterrupted = sched.ErrInterrupted

// ResumeSimulation continues a simulation from a snapshot. The config
// must carry the same system and workload trace that produced the
// snapshot; a different system or trace is refused. The trace's jobs
// carry their outcomes afterwards, as after Simulate.
func ResumeSimulation(cfg RunConfig, snap *RunSnapshot) (*Metrics, error) {
	return core.Resume(cfg, snap)
}

// ResumeSimulationContext is ResumeSimulation under a context; see
// SimulateContext for the cancellation contract.
func ResumeSimulationContext(ctx context.Context, cfg RunConfig, snap *RunSnapshot) (*Metrics, error) {
	return core.ResumeContext(ctx, cfg, snap)
}

// SaveSnapshot writes a RunSnapshot to path atomically, wrapped in a
// checksummed, versioned envelope.
var SaveSnapshot = sched.SaveSnapshot

// LoadSnapshot reads a RunSnapshot written by SaveSnapshot, verifying
// kind, version, and checksum.
var LoadSnapshot = sched.LoadSnapshot

// InvariantViolation is a detected scheduler-state inconsistency; the
// invariant checker (ObsOptions.Check) returns one as the run error.
type InvariantViolation = sched.InvariantViolation

// WriteFileAtomic writes data to path via a temp file in the same
// directory, fsync, and rename, so readers never observe a torn file.
var WriteFileAtomic = persist.WriteFileAtomic

// AtomicFile is an open file that reaches its destination only on
// Commit; Abort (or a crash) leaves any previous content intact.
type AtomicFile = persist.File

// CreateAtomic opens an AtomicFile that will atomically replace path.
var CreateAtomic = persist.CreateAtomic

// Resumable experiment sweeps: RunSweep runs each experiment cell under
// a panic guard and watchdog, journals one record per cell to a run
// directory, and resumes a run directory by skipping completed cells.
// An empty Dir journals nothing.

// SweepConfig configures a resumable experiment sweep.
type SweepConfig = experiments.SweepConfig

// SweepResult summarizes a sweep invocation.
type SweepResult = experiments.SweepResult

// SweepCellRecord is one journaled cell outcome.
type SweepCellRecord = experiments.CellRecord

// Sweep cell statuses.
const (
	SweepCellOK      = experiments.CellOK
	SweepCellError   = experiments.CellError
	SweepCellPanic   = experiments.CellPanic
	SweepCellTimeout = experiments.CellTimeout
	SweepCellWedged  = experiments.CellWedged
)

// RunSweep runs experiments, journaling each cell into a run directory
// unless Dir is empty.
var RunSweep = experiments.RunSweep

// SweepStatus summarizes a run directory's journal without running
// anything.
var SweepStatus = experiments.SweepStatus

// ErrSweepInterrupted reports a sweep stopped by its Interrupt hook; the
// run directory stays resumable.
var ErrSweepInterrupted = experiments.ErrSweepInterrupted

// MarketConfig controls synthetic market-dataset generation (Table III).
type MarketConfig = miso.Config

// MarketScenario selects the grid and renewable mix.
type MarketScenario = miso.Scenario

// Market scenarios.
const (
	MISOScenario  = miso.ScenarioMISO  // wind-dominated Midwest (the paper)
	CAISOScenario = miso.ScenarioCAISO // solar-dominated California (future work)
)

// GenKind distinguishes generator technologies.
type GenKind = powergrid.GenType

// Generator kinds.
const (
	WindKind  = powergrid.Wind
	SolarKind = powergrid.Solar
)

// MarketRecord is one wind site's 5-minute cleared-offer row (Table IV).
type MarketRecord = miso.Record

// MarketDataset streams a synthetic MISO-like dataset.
type MarketDataset = miso.Generator

// NewMarketDataset builds the coupled wind–grid–market system.
func NewMarketDataset(cfg MarketConfig) (*MarketDataset, error) { return miso.NewGenerator(cfg) }

// WriteMarketCSV streams an entire dataset to a writer as CSV.
var WriteMarketCSV = miso.WriteCSV

// ReadMarketCSV streams records from a CSV (plain or gzipped),
// invoking fn per record, in bounded memory.
var ReadMarketCSV = miso.ReadCSV

// ReadAllMarketCSV materializes an entire record stream; a thin wrapper
// over the streaming ReadMarketCSV.
var ReadAllMarketCSV = miso.ReadAllCSV

// ReadMarketCSVFile is ReadMarketCSV with an input name carried into
// errors.
var ReadMarketCSVFile = miso.ReadCSVFile

// MarketParseError locates a malformed market-CSV line.
type MarketParseError = miso.ParseError

// SPModel is one stranded-power definition (Table V).
type SPModel = stranded.Model

// SP model kinds.
const (
	LMP      = stranded.LMP
	NetPrice = stranded.NetPrice
)

// PaperSPModels are the four models the paper evaluates: LMP0, LMP5,
// NetPrice0, NetPrice5.
var PaperSPModels = stranded.PaperModels

// SPInterval is one stranded-power interval.
type SPInterval = stranded.Interval

// SPSiteStats are per-site stranded power metrics (Section V).
type SPSiteStats = stranded.SiteStats

// SPAnalysis extracts stranded-power intervals for every site of a
// dataset under one model.
type SPAnalysis = stranded.Analysis

// NewSPAnalysis creates per-site analyzers for nSites sites.
func NewSPAnalysis(model SPModel, nSites int) *SPAnalysis { return stranded.NewAnalysis(model, nSites) }

// NewSPAnalysisMin creates analyzers that additionally require minMW of
// offered power for SP to count (needed for solar sites, whose prices can
// stay negative after sundown).
func NewSPAnalysisMin(model SPModel, nSites int, minMW float64) *SPAnalysis {
	return stranded.NewAnalysisMin(model, nSites, minMW)
}

// SPWindows converts SP intervals to availability windows.
var SPWindows = stranded.Windows

// CumulativeDutyFactor returns top-N-site union duty factors (Figure 11).
var CumulativeDutyFactor = stranded.CumulativeDutyFactor

// CumulativeAvgSPMW returns top-N-site summed stranded MW (Figure 12).
var CumulativeAvgSPMW = stranded.CumulativeAvgSPMW

// Top500PowerMW returns the modeled power draw of the 2015 Top500 system
// at a 1-based rank (Figure 12's comparison line).
var Top500PowerMW = top500.PowerMW

// Top500CumulativePowerMW returns the summed power of ranks 1..k.
var Top500CumulativePowerMW = top500.CumulativePowerMW

// WindowPredictor estimates availability-window ends for predictive
// scheduling.
type WindowPredictor = sched.WindowPredictor

// FixedWindowPredictor assumes every window lasts a fixed duration.
type FixedWindowPredictor = forecast.Fixed

// HazardPredictor predicts window ends conditioned on window age from an
// empirical duration sample — the fix for fixed-horizon predictors'
// stale-window throttling on heavy-tailed stranded power.
type HazardPredictor = forecast.Hazard

// NewHazardPredictor builds a hazard predictor at the given optimism
// quantile in (0,1).
var NewHazardPredictor = forecast.NewHazard

// EconParams are the cost-model inputs for stranded-power computing
// economics (paper Section VIII future work).
type EconParams = econ.Params

// DefaultEconParams returns 2015-era new-hardware cost assumptions.
var DefaultEconParams = econ.DefaultParams

// RecycledEconParams returns the second-life-hardware scenario.
var RecycledEconParams = econ.RecycledParams

// Deployment kinds for the cost model.
const (
	TraditionalDeployment = econ.Traditional
	ContainerDeployment   = econ.Container
)

// ExperimentOptions scales the experiment suite; the zero value is the
// paper's configuration.
type ExperimentOptions = experiments.Options

// QuickOptions is a reduced preset for fast runs.
var QuickOptions = experiments.Quick

// Lab shares expensive artifacts across experiments.
type Lab = experiments.Lab

// NewLab creates a Lab.
var NewLab = experiments.NewLab

// ResultTable is one experiment's output.
type ResultTable = experiments.Table

// Experiment is one runnable paper artifact.
type Experiment = experiments.Experiment

// Experiments lists every paper table/figure plus the extensions.
var Experiments = experiments.All

// ExperimentByID returns the experiment with the given id.
var ExperimentByID = experiments.ByID

// RunExperiment runs one experiment by id ("fig5", "table6", ...).
func RunExperiment(id string, lab *Lab) (*ResultTable, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(lab)
}

// Telemetry (internal/obs): every simulation accepts an ObsOptions with a
// Tracer (typed scheduler-decision events), a MetricsRegistry (counters,
// gauges, histograms), and a ProgressReporter — all optional and near-free
// when absent. Trace records carry simulated time only, so same-seed runs
// emit byte-identical traces.

// ObsOptions bundles the telemetry hooks of a simulation run.
type ObsOptions = obs.Options

// Tracer consumes simulation trace events.
type Tracer = obs.Tracer

// TraceEvent is one simulation trace record.
type TraceEvent = obs.Event

// TraceEventKind enumerates the traced decision points.
type TraceEventKind = obs.EventKind

// Trace event kinds (see internal/obs for detail semantics).
const (
	EvArrive        = obs.EvArrive
	EvEnqueue       = obs.EvEnqueue
	EvStart         = obs.EvStart
	EvBackfillStart = obs.EvBackfillStart
	EvFinish        = obs.EvFinish
	EvKill          = obs.EvKill
	EvRequeue       = obs.EvRequeue
	EvPin           = obs.EvPin
	EvUnrunnable    = obs.EvUnrunnable
	EvReserve       = obs.EvReserve
	EvReserveClear  = obs.EvReserveClear
	EvWindowUp      = obs.EvWindowUp
	EvWindowDown    = obs.EvWindowDown
	EvNodeFail      = obs.EvNodeFail
	EvNodeRepair    = obs.EvNodeRepair
	EvBrownout      = obs.EvBrownout
	EvAbandon       = obs.EvAbandon

	// Durability events: checkpoints, resumes, invariant violations, and
	// sweep-cell panics.
	EvCheckpointSave     = obs.EvCheckpointSave
	EvCheckpointRestore  = obs.EvCheckpointRestore
	EvInvariantViolation = obs.EvInvariantViolation
	EvCellPanic          = obs.EvCellPanic
)

// TraceEventKindByName resolves a trace-record "ev" name to its kind.
var TraceEventKindByName = obs.KindByName

// TagRunTracer wraps a tracer so every event carries the given run ID.
var TagRunTracer = obs.TagRun

// NopTracer is the disabled tracer; its calls never allocate.
type NopTracer = obs.Nop

// MemTracer records events in memory for programmatic analysis.
type MemTracer = obs.Mem

// JSONLTracer streams events as JSON lines, buffered and race-safe.
type JSONLTracer = tracebin.JSONL

// NewJSONLTracer returns a JSONL tracer writing to w.
var NewJSONLTracer = tracebin.NewJSONL

// MetricsRegistry holds named counters, gauges, and histograms.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
var NewMetricsRegistry = obs.NewRegistry

// MetricsSnapshot is a point-in-time copy of a registry's metrics.
type MetricsSnapshot = obs.Snapshot

// ProgressReporter reports simulation progress and rate to a writer.
type ProgressReporter = obs.Progress

// NewProgressReporter returns a reporter writing at most once per
// interval.
var NewProgressReporter = obs.NewProgress

// MetricsSummaryTable renders a snapshot as a result table (the CLIs'
// telemetry summary).
var MetricsSummaryTable = experiments.MetricsSummary

// BuildInfo describes the running binary (module, Go version, VCS
// revision); it backs the CLIs' -version flag.
var BuildInfo = obs.BuildInfo

// EngineStats is the discrete-event engine's accounting snapshot.
type EngineStats = sim.Stats

// Run introspection: span-style wall-clock phase timers, a live status
// board, and an HTTP server exposing /metrics (Prometheus text),
// /status (JSON), and /debug/pprof — all observation-only, so runs with
// and without introspection stay byte-identical.

// SpanTimings accumulates named wall-clock phase timers; nil disables.
type SpanTimings = obs.Timings

// NewSpanTimings returns an empty span accumulator.
var NewSpanTimings = obs.NewTimings

// SpanSnapshot is one span name's aggregated timing.
type SpanSnapshot = obs.SpanSnapshot

// RunStatus is a live run-state board: the simulation loop and sweep
// runner publish into it; the introspection server serves it.
type RunStatus = obs.Status

// NewRunStatus returns an empty status board.
var NewRunStatus = obs.NewStatus

// SimStatus is one live simulation sample (/status "sim" section).
type SimStatus = obs.SimStatus

// PartitionStatus is one partition's live occupancy.
type PartitionStatus = obs.PartitionStatus

// StatusSnapshot is the full /status document.
type StatusSnapshot = obs.StatusSnapshot

// SweepLiveStatus is the live sweep section of /status.
type SweepLiveStatus = obs.SweepStatus

// CellLiveStatus is one sweep cell's live state.
type CellLiveStatus = obs.CellStatus

// ServeLiveStatus is the serving daemon's /status section.
type ServeLiveStatus = obs.ServeStatus

// LatencyStat is one lifecycle stage's percentile summary.
type LatencyStat = obs.LatencyStat

// Structured logging (internal/obs): leveled key=value or JSON log
// lines with bound-attribute correlation (run_id, req_id). A nil
// *Logger is the disabled logger — every call is an allocation-free
// no-op.

// Logger is the structured leveled logger.
type Logger = obs.Logger

// NewLogger returns a logger writing lines at or above min to w.
var NewLogger = obs.NewLogger

// LogLevel orders log severities.
type LogLevel = obs.Level

// Log levels, least to most severe.
const (
	LogDebug = obs.LevelDebug
	LogInfo  = obs.LevelInfo
	LogWarn  = obs.LevelWarn
	LogError = obs.LevelError
)

// ParseLogLevel maps "debug", "info", "warn", or "error" to a LogLevel.
var ParseLogLevel = obs.ParseLevel

// LogFormat selects the log line encoding (logfmt or JSON).
type LogFormat = obs.LogFormat

// ParseLogFormat maps "logfmt" or "json" to a LogFormat.
var ParseLogFormat = obs.ParseLogFormat

// TimeSeries is the in-process sample ring behind /v1/timeseries.
type TimeSeries = obs.TimeSeries

// NewTimeSeries builds a ring of capacity samples taken every interval.
var NewTimeSeries = obs.NewTimeSeries

// TimeSeriesSnapshot is the /v1/timeseries JSON document.
type TimeSeriesSnapshot = obs.TimeSeriesSnapshot

// SampleStatus builds a TimeSeries sampler reading a status board and
// registry.
var SampleStatus = obs.SampleStatus

// Introspection is the live HTTP server.
type Introspection = obs.Introspection

// StartIntrospection serves /metrics, /status, /v1/timeseries, and
// /debug/pprof on addr.
var StartIntrospection = obs.StartIntrospection

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format.
var WritePrometheus = obs.WritePrometheus

// SpanSummaryTable renders span timings as a result table.
var SpanSummaryTable = experiments.SpanSummary

// Trace I/O (internal/tracebin): JSONL, gzip, and the binary columnar
// .zct format.

// TraceSink is a committable trace destination: a Tracer whose output
// lands atomically on Commit and vanishes on Abort.
type TraceSink = tracebin.File

// CreateTraceSink starts an atomic trace write in the format the path
// suffix selects: ".zct" is binary columnar, anything else JSONL (".gz"
// compressed). All trace readers sniff content, so either output feeds
// the same analyses.
var CreateTraceSink = tracebin.CreateSink

// AnyTraceScanner streams events out of any trace input — .zct, JSONL,
// or either gzipped — by content sniffing.
type AnyTraceScanner = tracebin.Scanner

// NewAnyTraceScanner sniffs a trace stream and returns a scanner for it.
var NewAnyTraceScanner = tracebin.NewScanner

// ReadAnyTrace streams every event of a trace in any supported format
// through a callback, with memory bounded by one block.
var ReadAnyTrace = tracebin.ReadAny

// Trace analysis (cmd/zcctrace): post-process traces in any supported
// format into the paper's time-resolved views.

// TraceSummary is a whole-trace digest.
type TraceSummary = traceview.Summary

// SummarizeTrace digests a trace stream.
var SummarizeTrace = traceview.Summarize

// SummarizeTraceFile digests a trace file; output is identical to
// SummarizeTrace. An indexed .zct file's blocks are decoded on
// GOMAXPROCS goroutines.
var SummarizeTraceFile = traceview.SummarizeFile

// TraceSeries is a queue/utilization time series sampled from a trace.
type TraceSeries = traceview.Series

// TraceSeriesPoint is one sample of a TraceSeries.
type TraceSeriesPoint = traceview.SeriesPoint

// BuildTraceSeries samples a trace's reconstructed state every step.
var BuildTraceSeries = traceview.BuildSeries

// BuildTraceSeriesFile samples a trace file; output is identical to
// BuildTraceSeries. An indexed .zct file's blocks are decoded on
// GOMAXPROCS goroutines.
var BuildTraceSeriesFile = traceview.BuildSeriesFile

// TraceWaits is the wait-time breakdown by size bin and on-time class.
type TraceWaits = traceview.Waits

// TraceWaitBin is one cut of the breakdown.
type TraceWaitBin = traceview.WaitBin

// BuildTraceWaits derives wait-time cuts from a trace.
var BuildTraceWaits = traceview.BuildWaits

// TraceJobTimeline returns every event of one job, in trace order.
var TraceJobTimeline = traceview.JobTimeline

// TraceDiffResult locates the first difference between two traces.
type TraceDiffResult = traceview.DiffResult

// DiffTraces compares two traces event-for-event and reports the first
// divergence.
var DiffTraces = traceview.Diff

// Scheduler snapshot and restore.
//
// The scheduler's engine is a sim.Engine[pendingEvent]: every pending
// event is a plain serializable descriptor, and RunContext dispatches
// each one it pops through exec, which switches on its Kind. A snapshot
// is then the engine's counters plus the pending descriptors in dispatch
// order; restore re-schedules them in that exact order on a fresh
// engine, which reassigns insertion sequences 0..n-1 and so preserves
// every same-instant tie-break. The continuation of a restored run is
// byte-identical to the uninterrupted run (pinned by TestSnapshotRoundTrip).
package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/faults"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
)

// SnapshotVersion identifies the snapshot wire format. Restore refuses a
// snapshot written by a different version.
const SnapshotVersion = 1

// eventKind discriminates pendingEvent descriptors. String-valued so
// snapshots stay self-describing.
type eventKind string

// Pending-event kinds, one per kind of work the scheduler defers.
const (
	evArrival        eventKind = "arrival"          // Job: job arrival at its submit time
	evPass           eventKind = "pass"             // coalesced scheduling pass
	evFinish         eventKind = "finish"           // Job: running job's attempt completes
	evRequeue        eventKind = "requeue"          // Job: killed job re-enters the queue after backoff
	evWindowUp       eventKind = "window-up"        // Part, End: clean availability window starts
	evWindowEnd      eventKind = "window-end"       // Part: window ends (kill/requeue mode)
	evWindowDownMark eventKind = "window-down-mark" // Part: oracle-mode trace-only window-down marker
	evFateStart      eventKind = "fate-start"       // Part, End: fate-perturbed window starts (believed end)
	evFateEnd        eventKind = "fate-end"         // Part, Fate: fate-perturbed window really ends
	evOutage         eventKind = "outage"           // Part, Outage: injected node failure
	evRepair         eventKind = "repair"           // Part, Nodes: failed nodes return to service
)

// pendingEvent is the serializable descriptor of one scheduled event.
// Only the fields the Kind needs are set; the rest stay zero and are
// omitted from the snapshot.
type pendingEvent struct {
	Kind   eventKind          `json:"kind"`
	At     sim.Time           `json:"at"`
	Prio   int                `json:"prio"`
	Job    int                `json:"job,omitempty"`
	Part   string             `json:"part,omitempty"`
	End    sim.Time           `json:"end,omitempty"`
	Nodes  int                `json:"nodes,omitempty"`
	Fate   *faults.WindowFate `json:"fate,omitempty"`
	Outage *faults.Outage     `json:"outage,omitempty"`
}

// schedule queues one event at its descriptor's time and priority.
func (s *Scheduler) schedule(pe pendingEvent) sim.Handle {
	return s.eng.Schedule(pe.At, pe.Prio, pe)
}

// exec dispatches one descriptor. A descriptor that no longer matches
// scheduler state (unknown job or partition) is a corrupted snapshot or
// an internal bug; it latches an error instead of panicking.
func (s *Scheduler) exec(pe pendingEvent, now sim.Time) {
	switch pe.Kind {
	case evArrival:
		j := s.jobs[pe.Job]
		if j == nil {
			s.fail(fmt.Errorf("sched: arrival event for unknown job %d", pe.Job))
			return
		}
		s.arrive(j, now)
	case evPass:
		s.passSet = false
		s.pass(now)
	case evFinish:
		rj := s.running[pe.Job]
		if rj == nil {
			s.fail(fmt.Errorf("sched: finish event for job %d that is not running", pe.Job))
			return
		}
		s.finish(rj, now)
	case evRequeue:
		j := s.jobs[pe.Job]
		if j == nil {
			s.fail(fmt.Errorf("sched: requeue event for unknown job %d", pe.Job))
			return
		}
		s.backoff--
		s.enqueue(j)
		s.requestPass(now)
	case evWindowUp:
		p := s.part(pe)
		if p == nil {
			return
		}
		s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvWindowUp, Job: -1, Partition: p.Name, Nodes: p.Nodes, Detail: float64(pe.End)})
		s.requestPass(now)
	case evWindowEnd:
		if p := s.part(pe); p != nil {
			s.windowEnd(p, now)
		}
	case evWindowDownMark:
		if p := s.part(pe); p != nil {
			s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvWindowDown, Job: -1, Partition: p.Name, Nodes: p.Nodes})
		}
	case evFateStart:
		if p := s.part(pe); p != nil {
			s.windowRestore(p, pe.End, now)
		}
	case evFateEnd:
		p := s.part(pe)
		if p == nil {
			return
		}
		if pe.Fate == nil {
			s.fail(fmt.Errorf("sched: fate-end event without a fate on %q", pe.Part))
			return
		}
		s.windowFateEnd(p, *pe.Fate, now)
	case evOutage:
		p := s.part(pe)
		if p == nil {
			return
		}
		if pe.Outage == nil {
			s.fail(fmt.Errorf("sched: outage event without an outage on %q", pe.Part))
			return
		}
		s.nodeFail(p, *pe.Outage, now)
	case evRepair:
		if p := s.part(pe); p != nil {
			s.nodeRepair(p, pe.Nodes, now)
		}
	default:
		s.fail(fmt.Errorf("sched: unknown pending event kind %q", pe.Kind))
	}
}

// part resolves a descriptor's partition, latching an error when absent.
func (s *Scheduler) part(pe pendingEvent) *cluster.Partition {
	p := s.cfg.Machine.Partition(pe.Part)
	if p == nil {
		s.fail(fmt.Errorf("sched: %s event for unknown partition %q", pe.Kind, pe.Part))
	}
	return p
}

// fail latches the first fatal error; Run surfaces it.
func (s *Scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Snapshot is the complete serializable state of a paused scheduler: the
// engine accounting, every submitted job, the wait queue, the running
// set, partition allocation state, fault-layer bookkeeping, and the
// pending event queue in dispatch order. Restoring it into a fresh
// scheduler built from an equivalent Config continues the run
// byte-identically.
type Snapshot struct {
	Version     int      `json:"version"`
	Fingerprint string   `json:"fingerprint"` // run-configuration digest; Restore refuses a mismatch
	Deadline    sim.Time `json:"deadline"`

	Engine     sim.State        `json:"engine"`
	Jobs       []job.Job        `json:"jobs"`    // every submitted job, ascending ID
	Queue      []int            `json:"queue"`   // wait queue as job IDs, in queue order
	Running    []runningRec     `json:"running"` // running set, ascending job ID
	Partitions []partitionState `json:"partitions"`
	Pending    []pendingEvent   `json:"pending"` // engine queue in dispatch order
	Counters   snapCounters     `json:"counters"`

	// Fault-layer state; empty maps on fault-free runs.
	QueueAt       map[int]sim.Time `json:"queue_at,omitempty"`
	FailOffline   map[string]int   `json:"fail_offline,omitempty"`
	WindowOffline map[string]int   `json:"window_offline,omitempty"`
}

// runningRec records one running job's placement; the job's own state
// (start time, nodes) lives in Snapshot.Jobs.
type runningRec struct {
	Job  int    `json:"job"`
	Part string `json:"part"`
}

// partitionState is one partition's allocation accounting.
type partitionState struct {
	Name    string `json:"name"`
	Free    int    `json:"free"`
	Running int    `json:"running"`
	Offline int    `json:"offline"`
}

// snapCounters carries the scheduler's scalar accounting.
type snapCounters struct {
	Total        int                `json:"total"`
	Arrived      int                `json:"arrived"`
	Backoff      int                `json:"backoff"`
	Done         int                `json:"done"`
	Unrun        int                `json:"unrun"`
	Passes       int                `json:"passes"`
	Started      int                `json:"started"`
	Backfilled   int                `json:"backfilled"`
	Killed       int                `json:"killed"`
	Requeued     int                `json:"requeued"`
	Pinned       int                `json:"pinned"`
	PeakQueue    int                `json:"peak_queue"`
	Abandoned    int                `json:"abandoned"`
	NodeFailures int                `json:"node_failures"`
	Brownouts    int                `json:"brownouts"`
	NodeHours    map[string]float64 `json:"node_hours,omitempty"`
	PassAt       sim.Time           `json:"pass_at"`
	PassSet      bool               `json:"pass_set"`
	LastEnd      sim.Time           `json:"last_end"`
	Checked      sim.Time           `json:"checked"`
	ResJob       int                `json:"res_job"`
	ResTime      sim.Time           `json:"res_time"`
}

// Snapshot captures the scheduler's full state at the current event
// boundary. It validates invariants first — a snapshot of a corrupted
// scheduler would poison every resumed run — and emits a checkpoint-save
// trace event and metric.
func (s *Scheduler) Snapshot() (*Snapshot, error) {
	if s.err != nil {
		return nil, fmt.Errorf("sched: snapshot of a failed scheduler: %w", s.err)
	}
	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sched: snapshot refused: %w", err)
	}
	fp, err := s.fingerprint(s.deadline)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		Version:     SnapshotVersion,
		Fingerprint: fp,
		Deadline:    s.deadline,
		Engine:      s.eng.CaptureState(),
		Counters: snapCounters{
			Total:        s.total,
			Arrived:      s.arrived,
			Backoff:      s.backoff,
			Done:         s.done,
			Unrun:        s.unrun,
			Passes:       s.passes,
			Started:      s.started,
			Backfilled:   s.backfilled,
			Killed:       s.killed,
			Requeued:     s.requeued,
			Pinned:       s.pinned,
			PeakQueue:    s.peakQueue,
			Abandoned:    s.abandoned,
			NodeFailures: s.nodeFailures,
			Brownouts:    s.brownouts,
			NodeHours:    s.nodeHrs,
			PassAt:       s.passAt,
			PassSet:      s.passSet,
			LastEnd:      s.lastEnd,
			Checked:      s.checked,
			ResJob:       s.resJob,
			ResTime:      s.resTime,
		},
	}
	for _, j := range s.jobs {
		snap.Jobs = append(snap.Jobs, *j)
	}
	sort.Slice(snap.Jobs, func(i, k int) bool { return snap.Jobs[i].ID < snap.Jobs[k].ID })
	for _, j := range s.queue {
		snap.Queue = append(snap.Queue, j.ID)
	}
	for id, rj := range s.running {
		snap.Running = append(snap.Running, runningRec{Job: id, Part: rj.p.Name})
	}
	sort.Slice(snap.Running, func(i, k int) bool { return snap.Running[i].Job < snap.Running[k].Job })
	for _, p := range s.cfg.Machine.Partitions {
		snap.Partitions = append(snap.Partitions, partitionState{
			Name: p.Name, Free: p.Free(), Running: p.Running(), Offline: p.Offline(),
		})
	}
	snap.Pending = s.eng.PendingInOrder()
	if len(s.queueAt) > 0 {
		snap.QueueAt = s.queueAt
	}
	if len(s.failOffline) > 0 {
		snap.FailOffline = s.failOffline
	}
	if len(s.windowOffline) > 0 {
		snap.WindowOffline = s.windowOffline
	}
	s.tracer.Trace(obs.Event{Time: s.eng.Now(), Kind: obs.EvCheckpointSave, Job: -1,
		Detail: float64(len(snap.Pending))})
	s.cfg.Log.Debug("checkpoint saved", "sim_hours", s.eng.Now().Hours(), "pending_events", len(snap.Pending))
	if r := s.cfg.Metrics; r != nil {
		r.Scope("sched").Counter("checkpoint_saves").Inc()
	}
	return snap, nil
}

// Restore builds a scheduler resuming from snap. cfg must describe the
// same run the snapshot was taken from (same machine, policy and fault
// model): Restore verifies the configuration fingerprint and refuses a
// mismatched or version-skewed snapshot rather than silently mixing
// runs. Call Run with the original deadline to continue; the
// continuation is byte-identical to the uninterrupted run.
func Restore(cfg Config, snap *Snapshot) (*Scheduler, error) {
	if snap == nil {
		return nil, fmt.Errorf("sched: nil snapshot")
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("sched: snapshot version %d, this build reads version %d",
			snap.Version, SnapshotVersion)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.deadline = snap.Deadline
	fp, err := s.fingerprint(snap.Deadline)
	if err != nil {
		return nil, err
	}
	if fp != snap.Fingerprint {
		return nil, fmt.Errorf("sched: snapshot fingerprint %.12s does not match this configuration (%.12s): refusing to resume a different run",
			snap.Fingerprint, fp)
	}
	if err := s.eng.RestoreState(snap.Engine); err != nil {
		return nil, err
	}

	c := snap.Counters
	s.total, s.arrived, s.backoff = c.Total, c.Arrived, c.Backoff
	s.done, s.unrun, s.passes = c.Done, c.Unrun, c.Passes
	s.started, s.backfilled = c.Started, c.Backfilled
	s.killed, s.requeued = c.Killed, c.Requeued
	s.pinned, s.peakQueue = c.Pinned, c.PeakQueue
	s.abandoned, s.nodeFailures, s.brownouts = c.Abandoned, c.NodeFailures, c.Brownouts
	s.passAt, s.passSet = c.PassAt, c.PassSet
	s.lastEnd, s.checked = c.LastEnd, c.Checked
	s.resJob, s.resTime = c.ResJob, c.ResTime
	if c.NodeHours != nil {
		s.nodeHrs = c.NodeHours
	}

	for i := range snap.Jobs {
		cp := snap.Jobs[i]
		if _, dup := s.jobs[cp.ID]; dup {
			return nil, fmt.Errorf("sched: snapshot repeats job %d", cp.ID)
		}
		s.jobs[cp.ID] = &cp
	}
	for _, id := range snap.Queue {
		j := s.jobs[id]
		if j == nil {
			return nil, fmt.Errorf("sched: snapshot queues unknown job %d", id)
		}
		s.queue = append(s.queue, j)
	}
	for _, ps := range snap.Partitions {
		p := cfg.Machine.Partition(ps.Name)
		if p == nil {
			return nil, fmt.Errorf("sched: snapshot has partition %q, machine does not", ps.Name)
		}
		if err := p.RestoreState(ps.Free, ps.Running, ps.Offline); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
	}
	for _, rr := range snap.Running {
		j := s.jobs[rr.Job]
		p := cfg.Machine.Partition(rr.Part)
		if j == nil || p == nil {
			return nil, fmt.Errorf("sched: snapshot runs job %d on %q; one is unknown", rr.Job, rr.Part)
		}
		rj := &runningJob{j: j, p: p, rel: s.releaseOf(j, p)}
		s.running[rr.Job] = rj
		s.addRelease(rj)
	}
	if len(snap.QueueAt) > 0 {
		s.queueAt = snap.QueueAt
	}
	for part, n := range snap.FailOffline {
		if s.failOffline == nil {
			return nil, fmt.Errorf("sched: snapshot has fault state but the configuration has no fault injector")
		}
		s.failOffline[part] = n
	}
	for part, n := range snap.WindowOffline {
		if s.windowOffline == nil {
			return nil, fmt.Errorf("sched: snapshot has fault state but the configuration has no fault injector")
		}
		s.windowOffline[part] = n
	}

	// Re-schedule the pending queue in dispatch order: fresh insertion
	// sequences 0..n-1 reproduce every same-instant tie-break. Finish
	// events re-attach to their running job so a later kill can cancel
	// them.
	for _, pe := range snap.Pending {
		ev := s.schedule(pe)
		if pe.Kind == evFinish {
			rj := s.running[pe.Job]
			if rj == nil {
				return nil, fmt.Errorf("sched: snapshot has a finish event for job %d that is not running", pe.Job)
			}
			rj.end = ev
		}
	}
	if err := s.eng.Err(); err != nil {
		return nil, fmt.Errorf("sched: restoring pending events: %w", err)
	}
	s.restored = true

	if err := s.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sched: restored state is inconsistent: %w", err)
	}
	s.tracer.Trace(obs.Event{Time: s.eng.Now(), Kind: obs.EvCheckpointRestore, Job: -1,
		Detail: float64(len(snap.Pending))})
	s.cfg.Log.Debug("checkpoint restored", "sim_hours", s.eng.Now().Hours(), "pending_events", len(snap.Pending))
	if r := s.cfg.Metrics; r != nil {
		r.Scope("sched").Counter("checkpoint_restores").Inc()
	}
	return s, nil
}

// fingerprint digests everything that must match between the snapshotting
// run and the resuming run: machine shape, materialized availability
// windows, queue policy and admission flags, checkpoint model, and the
// fault configuration. Tracer/metrics/progress wiring is deliberately
// excluded — observability may differ across resume.
func (s *Scheduler) fingerprint(deadline sim.Time) (string, error) {
	type partFP struct {
		Name    string
		Nodes   int
		Windows []availability.Window
	}
	rec := struct {
		Version            int
		Policy             string
		Oracle             bool
		BackfillDepth      int
		DisableBackfill    bool
		PredictedWindow    sim.Duration
		HasPredictor       bool
		CheckpointInterval sim.Duration
		CheckpointOverhead sim.Duration
		HasClassify        bool
		Faults             *faults.Config
		Deadline           sim.Time
		Partitions         []partFP
	}{
		Version:            SnapshotVersion,
		Policy:             s.cfg.Policy.String(),
		Oracle:             s.cfg.Oracle,
		BackfillDepth:      s.cfg.BackfillDepth,
		DisableBackfill:    s.cfg.DisableBackfill,
		PredictedWindow:    s.cfg.PredictedWindow,
		HasPredictor:       s.cfg.Predictor != nil,
		CheckpointInterval: s.cfg.CheckpointInterval,
		CheckpointOverhead: s.cfg.CheckpointOverhead,
		HasClassify:        s.cfg.Classify != nil,
		Deadline:           deadline,
	}
	if s.cfg.Faults != nil {
		fc := s.cfg.Faults.Config()
		rec.Faults = &fc
	}
	for _, p := range s.cfg.Machine.Partitions {
		fp := partFP{Name: p.Name, Nodes: p.Nodes}
		if _, ok := p.Avail.(availability.AlwaysOn); !ok {
			fp.Windows = availability.Materialize(p.Avail, 0, deadline)
		}
		rec.Partitions = append(rec.Partitions, fp)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return "", fmt.Errorf("sched: fingerprinting configuration: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Scheduler snapshot and restore.
//
// The scheduler's engine is a sim.Engine[pendingEvent]: every pending
// event is a plain serializable descriptor, and RunContext dispatches
// each one it pops through exec, which switches on its Kind. A snapshot
// is then the engine's counters, the jobs that have arrived, and the
// pending descriptors in dispatch order; restore lays those jobs over
// the caller's trace and re-schedules the descriptors in that exact
// order on a fresh engine, which reassigns insertion sequences 0..n-1
// and so preserves every same-instant tie-break. Jobs yet to arrive stay
// in the trace, with at most one arrival event pending. The continuation
// of a restored run is byte-identical to the uninterrupted run (pinned
// by TestSnapshotRoundTrip).
package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/faults"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/persist"
	"zccloud/internal/sim"
)

// SnapshotVersion identifies the snapshot wire format. Restore refuses a
// snapshot written by a different version.
const SnapshotVersion = 2

// snapshotFileKind tags snapshot files written by SaveSnapshot.
const snapshotFileKind = "zccloud-snapshot"

// SaveSnapshot writes snap to path atomically, wrapped in a checksummed,
// versioned envelope.
func SaveSnapshot(path string, snap *Snapshot) error {
	return persist.SaveJSON(path, snapshotFileKind, SnapshotVersion, snap)
}

// LoadSnapshot reads a snapshot written by SaveSnapshot, verifying kind,
// version and checksum.
func LoadSnapshot(path string) (*Snapshot, error) {
	snap := new(Snapshot)
	if err := persist.LoadJSON(path, snapshotFileKind, SnapshotVersion, snap); err != nil {
		return nil, err
	}
	return snap, nil
}

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
		if s.arrived == len(s.arrivals) || s.arrivals[s.arrived].ID != pe.Job {
			s.fail(fmt.Errorf("sched: arrival event for job %d, which is not next to arrive", pe.Job))
			return
		}
		s.arrive(s.arrivals[s.arrived], now)
		s.scheduleArrival()
	case evPass:
		s.acct.PassSet = false
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
		s.acct.Backoff--
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

// Snapshot is the serializable state of a paused scheduler: the engine
// accounting, the jobs that have arrived, the wait queue, the running
// set, partition allocation state, fault-layer bookkeeping, and the
// pending event queue in dispatch order. Jobs yet to arrive are not in
// it: restoring it into a fresh scheduler built from an equivalent
// Config and the same trace continues the run byte-identically.
type Snapshot struct {
	Version     int      `json:"version"`
	Fingerprint string   `json:"fingerprint"` // run-configuration and trace digest; Restore refuses a mismatch
	Deadline    sim.Time `json:"deadline"`

	Engine     sim.State        `json:"engine"`
	Jobs       []job.Job        `json:"jobs"`    // the jobs that have arrived, in arrival order
	Queue      []int            `json:"queue"`   // wait queue as job IDs, in queue order
	Running    []runningRec     `json:"running"` // running set, ascending job ID
	Partitions []partitionState `json:"partitions"`
	Pending    []pendingEvent   `json:"pending"` // engine queue in dispatch order
	Counters   counters         `json:"counters"`

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
		Counters:    s.acct,
	}
	snap.Jobs = make([]job.Job, s.arrived)
	for i, j := range s.arrivals[:s.arrived] {
		snap.Jobs[i] = *j
	}
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

// Restore builds a scheduler resuming from snap over the trace tr. cfg
// and tr must describe the same run the snapshot was taken from (same
// machine, policy, fault model and jobs): Restore verifies the
// fingerprint and refuses a mismatched or version-skewed snapshot rather
// than silently mixing runs. The saved state of the jobs that had
// arrived is copied onto tr's jobs, whose outcomes the continued run
// records as a straight run would. Call Run with the original deadline
// to continue; the continuation is byte-identical to the uninterrupted
// run.
func Restore(cfg Config, tr *job.Trace, snap *Snapshot) (*Scheduler, error) {
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
	for _, j := range bySubmit(tr) {
		if _, err := s.add(j); err != nil {
			return nil, err
		}
	}
	s.deadline = snap.Deadline
	fp, err := s.fingerprint(snap.Deadline)
	if err != nil {
		return nil, err
	}
	if fp != snap.Fingerprint {
		return nil, fmt.Errorf("sched: snapshot fingerprint %.12s does not match this configuration and trace (%.12s): refusing to resume a different run",
			snap.Fingerprint, fp)
	}
	if err := s.eng.RestoreState(snap.Engine); err != nil {
		return nil, err
	}

	s.acct = snap.Counters
	if s.acct.NodeHours == nil {
		s.acct.NodeHours = make(map[string]float64)
	}

	if len(snap.Jobs) > len(s.arrivals) {
		return nil, fmt.Errorf("sched: snapshot has %d arrived jobs, the trace %d", len(snap.Jobs), len(s.arrivals))
	}
	for i := range snap.Jobs {
		j := s.arrivals[i]
		if j.ID != snap.Jobs[i].ID {
			return nil, fmt.Errorf("sched: snapshot's arrival %d is job %d, the trace's is job %d", i, snap.Jobs[i].ID, j.ID)
		}
		*j = snap.Jobs[i]
	}
	s.arrived = len(snap.Jobs)
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
	// them, and the arrival event to the scheduler so an earlier Submit
	// can replace it.
	for _, pe := range snap.Pending {
		ev := s.schedule(pe)
		switch pe.Kind {
		case evFinish:
			rj := s.running[pe.Job]
			if rj == nil {
				return nil, fmt.Errorf("sched: snapshot has a finish event for job %d that is not running", pe.Job)
			}
			rj.end = ev
		case evArrival:
			s.arrival = ev
		}
	}
	if err := s.eng.Err(); err != nil {
		return nil, fmt.Errorf("sched: restoring pending events: %w", err)
	}
	s.availScheduled = true

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
// windows, queue policy and admission flags, checkpoint model, the fault
// configuration, and the trace. Tracer/metrics/progress wiring is
// deliberately excluded — observability may differ across resume.
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
		Trace              string
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
		Trace:              s.traceDigest(),
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

// traceDigest digests the submitted jobs in arrival order: each job's ID,
// submission time, runtime, request and node count. Outcome fields are
// left out, so the digest is the same before, during and after a run.
func (s *Scheduler) traceDigest() string {
	h := sha256.New()
	b := make([]byte, 0, 40)
	for _, j := range s.arrivals {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(j.ID))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(j.Submit)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(j.Runtime)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(j.Request)))
		b = binary.LittleEndian.AppendUint64(b, uint64(j.Nodes))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

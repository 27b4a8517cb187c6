package serve

import (
	"context"
	"sync"
	"time"

	"zccloud/internal/core"
	"zccloud/internal/experiments"
	"zccloud/internal/obs"
	"zccloud/internal/sched"
)

// State is a run's position in its lifecycle. Transitions only move
// forward: queued → running → one of the terminal states, or queued →
// cancelled directly (a queued run cancelled before a worker picks it
// up never runs at all). The one loop is renewable-aware admission:
// parked-for-power ↔ queued/running may cycle as power windows close
// and reopen, until the run reaches a terminal state.
type State string

// Run states. Every accepted run ends in exactly one terminal state —
// the soak harness asserts this survives panics, cancels, and drains.
const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateDone         State = "done"         // finished; Metrics or Table populated
	StateFailed       State = "failed"       // error, panic, or deadline
	StateCancelled    State = "cancelled"    // client cancel, or shed at drain
	StateCheckpointed State = "checkpointed" // drained mid-run; snapshot on disk
	// StateParkedPower holds a run accepted (or preempted) outside a
	// stranded-power window: parked durably, auto-resubmitted when the
	// forecasted window opens. Not terminal.
	StateParkedPower State = "parked-for-power"
)

// Terminal reports whether a run in this state will never change again.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateCheckpointed:
		return true
	}
	return false
}

// RunInfo is the externally visible view of a run, returned by the API.
type RunInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Checkpoint is the snapshot file a drained run was parked in;
	// resume it with `zccsim -restore` under the same configuration.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Trace is the event-trace file a Spec.Trace request landed in,
	// under the server's data dir; analyze it with zcctrace.
	Trace     string     `json:"trace,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Deadline is the wall instant a power-admitted run expires; a run
	// still parked for power past it fails with the deadline outcome.
	Deadline *time.Time `json:"deadline,omitempty"`

	// Exactly one of these is set on a done run: Metrics for a
	// simulation spec, Table for an experiment spec.
	Metrics *core.Metrics      `json:"metrics,omitempty"`
	Table   *experiments.Table `json:"table,omitempty"`
}

// run is the server-side record behind a RunInfo.
type run struct {
	id   string
	spec Spec
	// log carries the run_id binding; every line about this run goes
	// through it. Set once at admission, read-only afterwards.
	log *obs.Logger

	mu         sync.Mutex
	state      State
	err        string
	checkpoint string
	// trace is the committed event-trace path; set only when the run
	// reached a terminal state with its trace landed on disk.
	trace     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	// interruptedAt marks when a running run was first cancelled; the
	// park-time histogram measures interrupt → terminal.
	interruptedAt time.Time
	// deadline is the wall instant a power-admitted run expires (zero =
	// none); the power loop fails parked runs past it.
	deadline time.Time
	// snapPath / resumeSnap carry a power-parked run's mid-run
	// checkpoint (durable path, or in memory without a data dir);
	// execute resumes from it instead of regenerating the workload.
	snapPath   string
	resumeSnap *sched.Snapshot
	// parkedPath is the durable parked record; removed once terminal
	// (except checkpointed, which a successor server re-adopts).
	parkedPath string
	metrics    *core.Metrics
	table      *experiments.Table
	// cancel interrupts the run's context with a cause that tells the
	// worker whether to checkpoint (drain) or discard (client cancel);
	// nil until the run starts.
	cancel context.CancelCauseFunc
}

// info snapshots the run for the API.
func (r *run) info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.infoLocked()
}

// infoLocked is info with r.mu already held.
func (r *run) infoLocked() RunInfo {
	ri := RunInfo{
		ID:         r.id,
		Name:       r.spec.Name,
		State:      r.state,
		Error:      r.err,
		Checkpoint: r.checkpoint,
		Trace:      r.trace,
		Submitted:  r.submitted,
		Metrics:    r.metrics,
		Table:      r.table,
	}
	if ri.Checkpoint == "" {
		// A power-parked run's mid-run snapshot is its checkpoint too.
		ri.Checkpoint = r.snapPath
	}
	if !r.started.IsZero() {
		t := r.started
		ri.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		ri.Finished = &t
	}
	if !r.deadline.IsZero() {
		t := r.deadline
		ri.Deadline = &t
	}
	return ri
}

// start transitions queued → running and installs the cancel hook. It
// reports false when the run was already cancelled while queued — the
// worker must then skip it without executing anything.
func (r *run) start(now time.Time, cancel context.CancelCauseFunc) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateQueued {
		return false
	}
	r.state = StateRunning
	r.started = now
	r.cancel = cancel
	return true
}

// interrupt cancels a running run with the given cause; a no-op in any
// other state. It reports whether a cancellation was delivered.
func (r *run) interrupt(cause error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateRunning || r.cancel == nil {
		return false
	}
	if r.interruptedAt.IsZero() {
		r.interruptedAt = time.Now()
	}
	r.cancel(cause)
	return true
}

// state reads need the lock too; tiny helper.
func (r *run) currentState() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

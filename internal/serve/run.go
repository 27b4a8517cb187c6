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
// up never runs at all). The one loop is parking: running →
// parked-for-power → queued may cycle as power windows close and
// reopen, until the run reaches a terminal state. A drain settles a
// parked run as checkpointed. Every state is journaled to runs.jsonl,
// and a successor server on the same data dir re-adopts, as
// parked-for-power, every run whose last record is not done, failed or
// cancelled.
type State string

// Run states. Every accepted run ends in exactly one terminal state —
// the soak harness asserts this survives panics, cancels, and drains.
const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateDone         State = "done"         // finished; Metrics or Table populated
	StateFailed       State = "failed"       // error, panic, or deadline
	StateCancelled    State = "cancelled"    // client cancel, or shed at drain
	StateCheckpointed State = "checkpointed" // drained while parked; snapshot on disk
	// StateParkedPower holds a run set aside to resume later: accepted
	// or preempted outside a stranded-power window, or interrupted by a
	// drain. It is parked durably and resubmitted when the forecasted
	// window opens (at once without power admission). Not terminal.
	StateParkedPower State = "parked-for-power"
)

// Terminal reports whether a run in this state will never change again
// in this server process.
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
	// Checkpoint is the snapshot file a parked or checkpointed run
	// resumes from, <data>/<id>.snapshot.json. A successor server on the
	// same data dir resumes a checkpointed run by itself; `zccsim
	// -restore` under the same configuration accepts the file too.
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

	mu    sync.Mutex
	state State
	err   string
	// trace is the committed event-trace path; set once the run's trace
	// landed on disk, at completion or as a park's prefix.
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
	// checkpoint / resumeSnap carry a parked run's mid-run snapshot
	// (durable path, or in memory without a data dir or on a failed
	// save); execute resumes from it instead of regenerating the
	// workload.
	checkpoint string
	resumeSnap *sched.Snapshot
	metrics    *core.Metrics
	table      *experiments.Table
	// cancel interrupts the run's context with a cause that tells the
	// worker whether to checkpoint (drain) or discard (client cancel);
	// nil until the run starts.
	cancel context.CancelCauseFunc
	// clientCancel records a client's cancel of a running run, which
	// park honours when the guard or a drain already cancelled ctx.
	clientCancel bool
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
		Started:    timeRef(r.started),
		Finished:   timeRef(r.finished),
		Deadline:   timeRef(r.deadline),
	}
	return ri
}

// timeRef returns &t, or nil for the zero time (omitted from JSON).
func timeRef(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// transition moves the run to st and journals the change; r.mu held.
// It is the one place a run's state changes, so the journal's order is
// the order in which clients can observe the states, and s.parked
// counts the parked runs exactly. A run's first record carries the spec
// and deadline a restart re-adopts it from; if it cannot be journaled
// the run keeps no state and the error is returned. A later record that
// fails is dropped (counted).
func (r *run) transition(s *Server, st State, now time.Time) error {
	rec := journalRecord{Time: now, Run: r.id, Name: r.spec.Name, State: st, Error: r.err, Checkpoint: r.checkpoint}
	first := r.state == ""
	if first {
		rec.Spec, rec.Deadline = &r.spec, timeRef(r.deadline)
	}
	if err := s.journal.append(rec, r.id, string(st)); err != nil && first {
		return err
	}
	if r.state == StateParkedPower {
		s.parked.Add(-1)
	}
	if st == StateParkedPower {
		s.parked.Add(1)
	}
	r.state = st
	return nil
}

// start transitions queued → running and installs the cancel hook. It
// reports false when the run was cancelled while queued or refused at
// admission — the worker must then skip it without executing anything.
func (r *run) start(s *Server, now time.Time, cancel context.CancelCauseFunc) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateQueued {
		return false
	}
	r.started = now
	r.cancel = cancel
	r.transition(s, StateRunning, now)
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

// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock and a priority queue of typed event descriptors.
//
// Engine[E] stores each pending event as a plain value of the caller's
// type E. It has no callbacks: the caller pops events with Next and
// dispatches them itself, so the pending queue is always a list of
// values that can be enumerated (PendingInOrder) and persisted.
//
// Events scheduled for the same instant are ordered by priority, then by
// insertion sequence, so a simulation run is a pure function of its inputs.
// Simulated time is a Time (seconds since the simulation epoch) rather than
// a time.Time; the simulator never reads the wall clock.
package sim

import (
	"fmt"
	"slices"
)

// Time is simulated time in seconds since the simulation epoch.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration = Time

// Common durations, in seconds.
const (
	Second Duration = 1
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 24 * Hour
)

// Hours returns the duration expressed in hours.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

// Event priorities. Lower runs first at the same instant. The scheduler
// relies on resource-releasing events (job end, availability-up) running
// before resource-consuming passes at the same time.
const (
	PrioRelease  = 0 // frees resources: job completion, partition up
	PrioWithdraw = 1 // removes resources: partition down
	PrioArrival  = 2 // job submission
	PrioSchedule = 3 // scheduling pass
)

// Handle names one scheduled event so it can be cancelled. The zero
// Handle names no event. A handle goes stale once its event fires or is
// cancelled; cancelling a stale handle is a no-op even after the
// engine has reused the event's storage.
type Handle struct {
	slot int32
	gen  uint32
}

// key is one heap entry: the dispatch order (at, prio, seq) plus the
// slot holding the event's descriptor.
type key struct {
	at   Time
	prio int
	seq  uint64
	slot int32
}

func (a key) less(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// slot holds one pending descriptor. Slots are recycled through a free
// list; gen increases on every reuse so stale handles can be told apart.
type slot[E any] struct {
	ev  E
	idx int32 // heap index; -1 when free
	gen uint32
}

// Engine is a discrete-event simulator over descriptors of type E. The
// zero value is invalid; use New.
type Engine[E any] struct {
	now    Time
	seq    uint64
	heap   []key
	slots  []slot[E]
	free   []int32
	steps  uint64
	maxLen int
	err    error // first scheduling fault (event in the past); latched
}

// New returns an engine with the clock at 0.
func New[E any]() *Engine[E] { return &Engine[E]{} }

// Now returns the current virtual time.
func (e *Engine[E]) Now() Time { return e.now }

// Err returns the first scheduling fault the engine latched (an event
// scheduled before the current time), or nil. Once latched, Next
// dispatches nothing further; callers should check Err when their loop
// ends.
func (e *Engine[E]) Err() error { return e.err }

// Stats is a point-in-time snapshot of the engine's accounting, consumed
// by the telemetry layer.
type Stats struct {
	Now         Time   // current virtual time
	Steps       uint64 // events dispatched so far
	Pending     int    // events still queued
	MaxQueueLen int    // high-water mark of the pending queue
}

// Stats snapshots the engine's counters.
func (e *Engine[E]) Stats() Stats {
	return Stats{Now: e.now, Steps: e.steps, Pending: len(e.heap), MaxQueueLen: e.maxLen}
}

// Schedule queues descriptor ev at time at with the given priority and
// returns a handle that can cancel it. An event in the past is a logic
// error in the caller: the engine refuses it, latches the fault (see
// Err), stops dispatching, and returns the zero Handle — it never fires.
func (e *Engine[E]) Schedule(at Time, prio int, ev E) Handle {
	if at < e.now {
		if e.err == nil {
			e.err = fmt.Errorf("sim: scheduling event at %v before now %v", at, e.now)
		}
		return Handle{}
	}
	var s int32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		s = int32(len(e.slots))
		e.slots = append(e.slots, slot[E]{})
	}
	sl := &e.slots[s]
	sl.ev = ev
	sl.gen++
	sl.idx = int32(len(e.heap))
	e.heap = append(e.heap, key{at: at, prio: prio, seq: e.seq, slot: s})
	e.seq++
	e.up(len(e.heap) - 1)
	if len(e.heap) > e.maxLen {
		e.maxLen = len(e.heap)
	}
	return Handle{slot: s, gen: sl.gen}
}

// Cancel removes a scheduled event. Cancelling an event that already
// fired or was cancelled (a stale handle), or the zero Handle, is a no-op
// and returns false.
func (e *Engine[E]) Cancel(h Handle) bool {
	if int(h.slot) >= len(e.slots) {
		return false
	}
	sl := &e.slots[h.slot]
	if sl.gen != h.gen || sl.idx < 0 {
		return false
	}
	e.remove(int(sl.idx))
	e.release(h.slot)
	return true
}

// NextTime returns the time of the next pending event.
func (e *Engine[E]) NextTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// Next pops the next event in dispatch order, advances the clock to its
// time and counts the step. It returns false when the queue is empty or
// a scheduling fault has been latched (see Err).
func (e *Engine[E]) Next() (Time, E, bool) {
	if len(e.heap) == 0 || e.err != nil {
		var zero E
		return 0, zero, false
	}
	k := e.remove(0)
	ev := e.slots[k.slot].ev
	e.release(k.slot)
	e.now = k.at
	e.steps++
	return k.at, ev, true
}

// release returns a slot to the free list, dropping its descriptor so
// anything it references can be collected.
func (e *Engine[E]) release(s int32) {
	sl := &e.slots[s]
	var zero E
	sl.ev = zero
	sl.idx = -1
	e.free = append(e.free, s)
}

// State is the engine's serializable accounting, captured by snapshots
// and re-applied by RestoreState. Pending events are not part of it: the
// layer that owns the descriptors persists them (see PendingInOrder)
// and re-schedules them on restore.
type State struct {
	Now         Time   `json:"now"`
	Steps       uint64 `json:"steps"`
	MaxQueueLen int    `json:"max_queue_len"`
}

// CaptureState snapshots the clock and counters.
func (e *Engine[E]) CaptureState() State {
	return State{Now: e.now, Steps: e.steps, MaxQueueLen: e.maxLen}
}

// RestoreState re-applies a captured clock and counters to a fresh
// engine. It refuses to overwrite an engine that has already dispatched
// or queued events: restore must rebuild the world from empty.
func (e *Engine[E]) RestoreState(st State) error {
	if e.steps != 0 || len(e.heap) != 0 || e.seq != 0 {
		return fmt.Errorf("sim: restore into a non-fresh engine (%d steps, %d pending)", e.steps, len(e.heap))
	}
	e.now = st.Now
	e.steps = st.Steps
	e.maxLen = st.MaxQueueLen
	return nil
}

// PendingInOrder returns the pending descriptors in dispatch order —
// (time, priority, insertion sequence) — without disturbing the queue.
// Re-scheduling them in this exact order on a fresh engine reproduces
// the same tie-breaking forever after.
func (e *Engine[E]) PendingInOrder() []E {
	if len(e.heap) == 0 {
		return nil
	}
	keys := slices.Clone(e.heap)
	slices.SortFunc(keys, func(a, b key) int {
		if a.less(b) {
			return -1
		}
		return 1
	})
	out := make([]E, len(keys))
	for i, k := range keys {
		out[i] = e.slots[k.slot].ev
	}
	return out
}

// remove deletes heap entry i and returns it.
func (e *Engine[E]) remove(i int) key {
	k := e.heap[i]
	last := len(e.heap) - 1
	if i != last {
		e.swap(i, last)
	}
	e.heap = e.heap[:last]
	if i != last {
		e.down(i)
		e.up(i)
	}
	return k
}

// swap exchanges two heap entries and keeps their slots' indexes current.
func (e *Engine[E]) swap(i, j int) {
	h := e.heap
	h[i], h[j] = h[j], h[i]
	e.slots[h[i].slot].idx = int32(i)
	e.slots[h[j].slot].idx = int32(j)
}

func (e *Engine[E]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.heap[i].less(e.heap[p]) {
			return
		}
		e.swap(i, p)
		i = p
	}
}

func (e *Engine[E]) down(i int) {
	n := len(e.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && e.heap[r].less(e.heap[c]) {
			c = r
		}
		if !e.heap[c].less(e.heap[i]) {
			return
		}
		e.swap(i, c)
		i = c
	}
}

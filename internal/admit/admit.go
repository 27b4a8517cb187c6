// Package admit implements renewable-aware admission control: the
// decision layer that answers "can this run's estimated cost fit inside
// the forecasted stranded-power capacity before its deadline?" (the
// Cucumber direction — admission driven by a power forecast rather than
// queue depth alone).
//
// The core type is Envelope: a stranded-power schedule (explicit
// windows, optionally replayed in a loop) combined with a window-end
// Predictor from internal/forecast. Evaluate integrates forecasted
// usable compute-seconds between now and a deadline and compares it
// against a run's cost; the accept path is allocation-free, pinned by
// BenchmarkAdmitDecision.
//
// Envelope works in schedule time (sim seconds). The Controller in
// clock.go maps wall-clock time onto the schedule so the same envelope
// drives both the zccd serving daemon (live, possibly time-compressed
// replay) and the admission experiment sweep (pure simulated time).
package admit

import (
	"fmt"
	"sort"

	"zccloud/internal/sim"
)

// Predictor forecasts when a power window that opened at start will
// end, given that it is still open at now. Both forecast.Fixed and
// *forecast.Hazard satisfy it.
type Predictor interface {
	PredictedEnd(start, now sim.Time) sim.Time
}

// Window is one stranded-power window [Start, End) in schedule time,
// with the capacity fraction available during it (1 = the full worker
// pool; a brownout residue is a window with Frac < 1).
type Window struct {
	Start, End sim.Time
	Frac       float64
}

// Duration returns End − Start.
func (w Window) Duration() sim.Duration { return w.End - w.Start }

// Decision reasons. Constant strings so decisions stay allocation-free.
const (
	ReasonFits       = "fits"
	ReasonNoDeadline = "no-deadline"
	ReasonNoWindows  = "no-power-schedule"
	ReasonCapacity   = "insufficient-capacity"
	ReasonExhausted  = "schedule-exhausted"
)

// Decision is the outcome of one admission evaluation.
type Decision struct {
	// Fit reports whether the cost fits inside forecasted capacity
	// before the deadline.
	Fit bool
	// Reason is one of the Reason* constants.
	Reason string
	// WindowOpen reports whether a power window is open at evaluation
	// time.
	WindowOpen bool
	// Capacity is the forecasted usable compute-time between now and
	// the deadline (zero when no deadline bounds the integral).
	Capacity sim.Duration
	// RetryIn is the schedule-time wait before a retry could succeed:
	// until the next window opens when closed, or until the window
	// after the current one when open but infeasible. Zero when Fit,
	// or when the schedule is exhausted (no retry will ever help).
	RetryIn sim.Duration
}

// Envelope is a stranded-power schedule plus a window-end predictor.
// It is immutable after construction and safe for concurrent use.
type Envelope struct {
	wins    []Window
	horizon sim.Duration // loop period; 0 = play the schedule once
	pred    Predictor    // nil = trust scheduled ends (oracle forecast)
}

// NewEnvelope validates and normalizes a schedule. Windows are sorted
// and must not overlap; empty windows are dropped and a zero Frac means
// full capacity. A non-zero horizon replays the schedule periodically
// and must cover the last window. A nil predictor means scheduled
// window ends are taken as truth (a zero-error oracle).
func NewEnvelope(wins []Window, horizon sim.Duration, pred Predictor) (*Envelope, error) {
	ws := make([]Window, 0, len(wins))
	for _, w := range wins {
		if w.End <= w.Start {
			continue
		}
		if w.Frac == 0 {
			w.Frac = 1
		}
		if w.Frac < 0 || w.Frac > 1 {
			return nil, fmt.Errorf("admit: window [%v,%v) frac %v outside (0, 1]", w.Start, w.End, w.Frac)
		}
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	for i := 1; i < len(ws); i++ {
		if ws[i].Start < ws[i-1].End {
			return nil, fmt.Errorf("admit: windows [%v,%v) and [%v,%v) overlap",
				ws[i-1].Start, ws[i-1].End, ws[i].Start, ws[i].End)
		}
	}
	if horizon < 0 {
		return nil, fmt.Errorf("admit: horizon %v < 0", horizon)
	}
	if horizon > 0 && len(ws) > 0 {
		if last := ws[len(ws)-1].End; last > horizon {
			return nil, fmt.Errorf("admit: horizon %v shorter than schedule span %v", horizon, last)
		}
		if ws[0].Start < 0 {
			return nil, fmt.Errorf("admit: looping schedule starts before zero (%v)", ws[0].Start)
		}
	}
	return &Envelope{wins: ws, horizon: horizon, pred: pred}, nil
}

// Windows returns the normalized schedule (read-only).
func (e *Envelope) Windows() []Window { return e.wins }

// cursor locates t in the schedule: the base offset of t's replay cycle
// and the index of the first window whose end (within the cycle) is
// after the cycle-local phase of t.
func (e *Envelope) cursor(t sim.Time) (base sim.Time, idx int) {
	phase := t
	if e.horizon > 0 {
		n := sim.Time(int64(t / e.horizon))
		if base = n * e.horizon; base > t {
			base -= e.horizon // negative t
		}
		phase = t - base
	}
	idx = sort.Search(len(e.wins), func(i int) bool { return e.wins[i].End > phase })
	return base, idx
}

// At returns the window open at t, shifted to absolute schedule time.
func (e *Envelope) At(t sim.Time) (Window, bool) {
	if len(e.wins) == 0 {
		return Window{}, false
	}
	base, idx := e.cursor(t)
	if idx == len(e.wins) {
		return Window{}, false
	}
	w := e.wins[idx]
	w.Start += base
	w.End += base
	if t >= w.Start && t < w.End {
		return w, true
	}
	return Window{}, false
}

// NextStart returns how long until a window is open at or after t: zero
// when one is open at t. ok is false when the schedule never opens
// again (non-looping schedule exhausted).
func (e *Envelope) NextStart(t sim.Time) (sim.Duration, bool) {
	if len(e.wins) == 0 {
		return 0, false
	}
	base, idx := e.cursor(t)
	if idx == len(e.wins) {
		if e.horizon <= 0 {
			return 0, false
		}
		base += e.horizon
		idx = 0
	}
	w := e.wins[idx]
	if start := base + w.Start; start > t {
		return start - t, true
	}
	return 0, true
}

// PredictedEnd returns the forecasted end of the window open at t
// (absolute schedule time). ok is false when no window is open.
func (e *Envelope) PredictedEnd(t sim.Time) (sim.Time, bool) {
	w, ok := e.At(t)
	if !ok {
		return 0, false
	}
	return e.forecastEnd(w, t), true
}

// forecastEnd applies the predictor to a window (already in absolute
// time), conditioned on it still being open at now. The scheduled end
// is the truth with a nil predictor; a prediction is clamped to be at
// least now — a window observed open cannot have already ended.
func (e *Envelope) forecastEnd(w Window, now sim.Time) sim.Time {
	if e.pred == nil {
		return w.End
	}
	p := e.pred.PredictedEnd(w.Start, now)
	if p < now {
		p = now
	}
	return p
}

// Capacity integrates forecasted usable compute-time over [now,
// deadline): the currently open window contributes up to its predicted
// end, later windows up to their predicted length from a cold start,
// each weighted by its capacity fraction. The walk is bounded by the
// deadline and allocation-free.
func (e *Envelope) Capacity(now, deadline sim.Time) sim.Duration {
	if deadline <= now || len(e.wins) == 0 {
		return 0
	}
	var total sim.Duration
	base, idx := e.cursor(now)
	for {
		if idx == len(e.wins) {
			if e.horizon <= 0 {
				return total
			}
			base += e.horizon
			idx = 0
			continue
		}
		w := e.wins[idx]
		w.Start += base
		w.End += base
		if w.Start >= deadline {
			return total
		}
		from := w.Start
		if now > from {
			from = now
		}
		end := e.forecastEnd(w, from)
		if end > deadline {
			end = deadline
		}
		if end > from {
			total += sim.Duration(float64(end-from) * w.Frac)
		}
		idx++
	}
}

// Evaluate answers the admission question at schedule time now: can
// cost compute-seconds fit inside forecasted capacity before deadline?
// A non-positive deadline (or cost) means the caller set none — the run
// can park across closed windows indefinitely, so it fits as long as
// the schedule ever opens again. The accept path performs no
// allocations.
func (e *Envelope) Evaluate(now sim.Time, cost sim.Duration, deadline sim.Time) Decision {
	var d Decision
	if len(e.wins) == 0 {
		d.Reason = ReasonNoWindows
		return d
	}
	wait, ok := e.NextStart(now)
	d.WindowOpen = ok && wait == 0
	if !ok {
		d.Reason = ReasonExhausted
		return d
	}
	if deadline <= now || cost <= 0 {
		d.Fit = true
		d.Reason = ReasonNoDeadline
		return d
	}
	d.Capacity = e.Capacity(now, deadline)
	if d.Capacity >= cost {
		d.Fit = true
		d.Reason = ReasonFits
		return d
	}
	d.Reason = ReasonCapacity
	d.RetryIn = e.retryIn(now, wait)
	return d
}

// retryIn picks the schedule-time retry hint for an infeasible
// submission: the next window start when closed, or the start of the
// window after the current one when the open window itself cannot fit
// the work before its deadline.
func (e *Envelope) retryIn(now sim.Time, wait sim.Duration) sim.Duration {
	if wait > 0 {
		return wait
	}
	w, ok := e.At(now)
	if !ok {
		return 0
	}
	next, ok := e.NextStart(w.End)
	if !ok {
		return 0
	}
	return (w.End - now) + next
}

package serve

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"zccloud/internal/obs"
	"zccloud/internal/persist"
)

// journalRecord is one runs.jsonl line: a run's state transition with
// wall-clock timestamp. runs.jsonl is zccd's one durable run store: a
// run's first record in each server process also carries its spec and
// deadline, and its very first record's Time is the submission.
type journalRecord struct {
	Time       time.Time  `json:"time"`
	Run        string     `json:"run"`
	Name       string     `json:"name,omitempty"`
	State      State      `json:"state"`
	Error      string     `json:"error,omitempty"`
	Checkpoint string     `json:"checkpoint,omitempty"`
	Spec       *Spec      `json:"spec,omitempty"`
	Deadline   *time.Time `json:"deadline,omitempty"`
}

// replayRuns reads the run journal (missing file = empty, torn tail
// tolerated) last-record-wins per run, like replayRegistry. It returns
// each run whose last state is not done, failed or cancelled, in
// submission order, as its first record with the last one's state and
// checkpoint — skipping runs journaled before records carried specs —
// and the highest run-id suffix journaled.
func replayRuns(path string) (open []journalRecord, nextSeq int, err error) {
	at := make(map[string]int) // run id → index in open
	err = persist.ReadJournal(path, func() any { return &journalRecord{} },
		func(rec any) error {
			r := rec.(*journalRecord)
			if n, ok := idSeq(r.Run, "r-"); ok && n > nextSeq {
				nextSeq = n
			}
			if i, ok := at[r.Run]; ok {
				open[i].State, open[i].Checkpoint = r.State, r.Checkpoint
			} else {
				at[r.Run] = len(open)
				open = append(open, *r)
			}
			return nil
		})
	if err != nil {
		return nil, 0, fmt.Errorf("serve: replaying run journal: %w", err)
	}
	return slices.DeleteFunc(open, func(r journalRecord) bool {
		return r.Spec == nil || r.State == StateDone || r.State == StateFailed || r.State == StateCancelled
	}), nextSeq, nil
}

// appender is the journal's write surface; *persist.Journal satisfies
// it, and tests substitute flaky fakes to exercise the breaker.
type appender interface {
	Append(rec any) error
}

// journalSink writes journal records through a retry policy and a
// circuit breaker, so a transiently sick disk neither loses every
// record nor stalls the run workers behind unbounded retries. The same
// sink fronts both the run journal (runs.jsonl) and the sweep registry
// journal (sweeps/registry.jsonl). Callers check the returned error
// where durability is the point — a run's admission record, a sweep
// registration — and drop later records on failure (counted).
//
// Breaker transitions are surfaced three ways: a warn/info log line
// carrying the correlation id whose append crossed the state, a
// journal_breaker_open gauge (1 while open), and a
// journal_breaker_trips counter on /metrics — shared across every sink
// the server owns, so one sick disk reads as one signal.
type journalSink struct {
	mu      sync.Mutex
	app     appender
	br      *persist.Breaker
	retry   persist.RetryPolicy
	dropped int64

	idKey   string // log-attribute name for the record's correlation id
	log     *obs.Logger
	scope   obs.Scope
	wasOpen bool
	trips   int64 // last Trips() value mirrored into the counter
}

// journalCooldown is how long an open journal breaker refuses appends;
// a submission refused meanwhile is told to retry within it.
const journalCooldown = 2 * time.Second

func newJournalSink(idKey string, app appender, log *obs.Logger, scope obs.Scope) *journalSink {
	return &journalSink{
		idKey: idKey,
		app:   app,
		br:    persist.NewBreaker(3, journalCooldown),
		retry: persist.RetryPolicy{Attempts: 3, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
		log:   log,
		scope: scope,
	}
}

// append writes one record, retrying transient failures with jittered
// backoff. id and state label the record in logs. It returns the final
// error; whether that is advisory or fatal is the caller's policy.
func (s *journalSink) append(rec any, id, state string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.app == nil {
		return nil
	}
	if !s.br.Allow() {
		s.dropped++
		s.log.Warn("journal record dropped: breaker open",
			s.idKey, id, "state", state, "dropped", s.dropped)
		return persist.ErrBreakerOpen
	}
	err := s.retry.Do(func() error { return s.app.Append(rec) })
	s.br.Record(err)
	if err != nil {
		s.dropped++
	}
	s.observeBreaker(id, state, err)
	return err
}

// observeBreaker mirrors the breaker's state into metrics and logs its
// transitions; s.mu held.
func (s *journalSink) observeBreaker(id, state string, err error) {
	if t := s.br.Trips(); t > s.trips {
		s.scope.Counter("journal_breaker_trips").Add(t - s.trips)
		s.trips = t
	}
	open := !s.br.Allow()
	if open != s.wasOpen {
		s.wasOpen = open
		if open {
			s.scope.Gauge("journal_breaker_open").Set(1)
			s.log.Warn("journal breaker opened", s.idKey, id,
				"state", state, "err", fmt.Sprint(err), "trips", s.trips)
		} else {
			s.scope.Gauge("journal_breaker_open").Set(0)
			s.log.Info("journal breaker closed", s.idKey, id, "state", state)
		}
	}
}

// close closes the journal file. Later appends are no-ops, as on a
// server without a data dir.
func (s *journalSink) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, _ := s.app.(io.Closer)
	s.app = nil
	if c == nil {
		return nil
	}
	return c.Close()
}

// droppedCount returns how many records were lost to sink failures.
func (s *journalSink) droppedCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Scheduler invariant checker: structural consistency conditions that
// must hold at every event boundary. The checker runs after each
// dispatched event under Config.Check, and at every snapshot and restore
// boundary unconditionally — persisting or resuming a corrupted state
// would poison every downstream result.
package sched

import (
	"fmt"

	"zccloud/internal/sim"
)

// InvariantViolation describes one broken scheduler invariant: which
// rule, at what simulated time, and the observed inconsistency.
type InvariantViolation struct {
	Name   string   // short rule identifier, e.g. "capacity"
	Time   sim.Time // simulated time of the check
	Detail string   // what was observed
}

func (v *InvariantViolation) Error() string {
	return fmt.Sprintf("sched: invariant %q violated at t=%v: %s", v.Name, v.Time, v.Detail)
}

// violation builds an *InvariantViolation at the current simulated time.
func (s *Scheduler) violation(name, format string, args ...any) error {
	return &InvariantViolation{Name: name, Time: s.eng.Now(), Detail: fmt.Sprintf(format, args...)}
}

// CheckInvariants validates the scheduler's structural invariants:
//
//   - event-time monotonicity: the clock never moves backward between
//     checks;
//   - capacity: every partition's free/in-use/offline pools are
//     non-negative and sum to its node count, allocated nodes match the
//     running jobs placed on it, and the offline pool never exceeds what
//     the fault layer asked to take down;
//   - exclusivity: no job is simultaneously queued and running, and the
//     queue holds no duplicates;
//   - queue order: under FCFS the queue is sorted by (queue time, ID)
//     (WFP re-sorts per pass, so order between passes is unspecified);
//   - running-set consistency: every running job is marked started on
//     the partition that holds its allocation;
//   - release index: each partition's index holds exactly the running
//     jobs placed there, in strict (release, nodes, ID) order, and every
//     cached release time and start-window end equals a fresh
//     recomputation;
//   - job-state conservation: every arrived job is in exactly one of
//     queued / running / backoff / completed / unrunnable / abandoned.
//
// The first violated invariant is returned as an *InvariantViolation;
// nil means all hold.
func (s *Scheduler) CheckInvariants() error {
	now := s.eng.Now()
	if now < s.checked {
		return s.violation("monotone-time", "clock moved backward: %v after %v", now, s.checked)
	}
	s.checked = now

	// Capacity accounting per partition.
	onPart := make(map[string]int) // allocated nodes per partition, from the running set
	jobsOn := make(map[string]int) // running jobs per partition
	for id, rj := range s.running {
		if rj.j == nil || rj.p == nil {
			return s.violation("running-set", "running entry %d has nil job or partition", id)
		}
		if rj.j.ID != id {
			return s.violation("running-set", "running entry %d holds job %d", id, rj.j.ID)
		}
		if !rj.j.Started {
			return s.violation("running-set", "job %d is running but not marked started", id)
		}
		if rj.j.Partition != rj.p.Name {
			return s.violation("running-set", "job %d runs on %q but is marked %q", id, rj.p.Name, rj.j.Partition)
		}
		onPart[rj.p.Name] += rj.j.Nodes
		jobsOn[rj.p.Name]++
	}
	for _, p := range s.cfg.Machine.Partitions {
		free, off, use := p.Free(), p.Offline(), p.InUse()
		if free < 0 || off < 0 || use < 0 {
			return s.violation("capacity", "partition %q pools negative: free=%d offline=%d in-use=%d",
				p.Name, free, off, use)
		}
		if free+off+use != p.Nodes {
			return s.violation("capacity", "partition %q pools sum to %d, node count %d",
				p.Name, free+off+use, p.Nodes)
		}
		if onPart[p.Name] != use {
			return s.violation("capacity", "partition %q has %d nodes allocated but running jobs hold %d",
				p.Name, use, onPart[p.Name])
		}
		if jobsOn[p.Name] != p.Running() {
			return s.violation("capacity", "partition %q counts %d allocations but %d jobs run there",
				p.Name, p.Running(), jobsOn[p.Name])
		}
		if s.cfg.Faults != nil {
			want := s.failOffline[p.Name] + s.windowOffline[p.Name]
			if want > p.Nodes {
				want = p.Nodes
			}
			// Kills are job-quantized, so the offline pool may lag below
			// the fault layer's target — but never exceed it.
			if off > want {
				return s.violation("capacity", "partition %q has %d nodes offline, fault layer asked for %d",
					p.Name, off, want)
			}
		}
	}

	// Release index: exactly the running jobs, strictly ordered, fresh.
	for _, p := range s.cfg.Machine.Partitions {
		rels := s.releases[p]
		if len(rels) != jobsOn[p.Name] {
			return s.violation("release-index", "partition %q indexes %d releases but %d jobs run there",
				p.Name, len(rels), jobsOn[p.Name])
		}
		for i, r := range rels {
			rj := s.running[r.job]
			if rj == nil || rj.p != p {
				return s.violation("release-index", "partition %q indexes job %d, which does not run there", p.Name, r.job)
			}
			if want := s.releaseOf(rj.j, p); r != want || rj.rel != want {
				return s.violation("release-index", "job %d indexed as %+v, cached %+v, recomputed %+v", r.job, r, rj.rel, want)
			}
			if i > 0 && cmpRelease(rels[i-1], r) >= 0 {
				return s.violation("release-index", "partition %q releases of jobs %d and %d out of order at positions %d,%d",
					p.Name, rels[i-1].job, r.job, i-1, i)
			}
		}
	}

	// Queue exclusivity, duplicates, and (FCFS) order.
	seen := make(map[int]bool, len(s.queue))
	for i, j := range s.queue {
		if seen[j.ID] {
			return s.violation("exclusivity", "job %d queued twice", j.ID)
		}
		seen[j.ID] = true
		if _, run := s.running[j.ID]; run {
			return s.violation("exclusivity", "job %d is both queued and running", j.ID)
		}
		if j.Completed || j.Abandoned {
			return s.violation("exclusivity", "terminal job %d is still queued", j.ID)
		}
		if s.cfg.Policy == FCFS && i > 0 && !s.queueLess(s.queue[i-1], j) {
			return s.violation("queue-order", "jobs %d and %d out of FCFS order at positions %d,%d",
				s.queue[i-1].ID, j.ID, i-1, i)
		}
	}

	// Job-state conservation over arrived jobs.
	if got := len(s.queue) + len(s.running) + s.backoff + s.done + s.unrun + s.abandoned; got != s.arrived {
		return s.violation("conservation",
			"%d jobs arrived but states account for %d (queued=%d running=%d backoff=%d done=%d unrunnable=%d abandoned=%d)",
			s.arrived, got, len(s.queue), len(s.running), s.backoff, s.done, s.unrun, s.abandoned)
	}
	if s.arrived > s.total {
		return s.violation("conservation", "%d arrivals exceed %d submissions", s.arrived, s.total)
	}
	return nil
}

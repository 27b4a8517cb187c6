package sched

// Oracle test: on tiny single-partition FCFS-without-backfill cases, the
// event-driven scheduler must agree exactly with a brute-force
// time-stepped reference simulator (1-second ticks, integer times).

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/job"
	"zccloud/internal/sim"
)

// refJob is the reference simulator's job state.
type refJob struct {
	submit, runtime int
	nodes           int
	start, end      int
	started         bool
}

// referenceFCFS simulates plain FCFS (no backfill) on one always-on
// partition with integer 1-second ticks.
func referenceFCFS(jobs []*refJob, totalNodes, horizon int) {
	free := totalNodes
	type running struct {
		end   int
		nodes int
	}
	var run []running
	for t := 0; t <= horizon; t++ {
		// releases first (matches PrioRelease before PrioSchedule)
		keep := run[:0]
		for _, r := range run {
			if r.end == t {
				free += r.nodes
			} else {
				keep = append(keep, r)
			}
		}
		run = keep
		// FCFS: start queued jobs strictly in order; stop at first blocker
		for _, j := range jobs {
			if j.started || j.submit > t {
				continue
			}
			if j.nodes > free {
				break // head-of-line blocking
			}
			j.started = true
			j.start = t
			j.end = t + j.runtime
			free -= j.nodes
			run = append(run, running{j.end, j.nodes})
		}
	}
}

func TestSchedulerAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		totalNodes := 1 + r.Intn(16)
		n := 1 + r.Intn(12)

		refs := make([]*refJob, n)
		jobs := make([]*job.Job, n)
		for i := 0; i < n; i++ {
			rj := &refJob{
				submit:  r.Intn(50),
				runtime: 1 + r.Intn(40),
				nodes:   1 + r.Intn(totalNodes),
			}
			refs[i] = rj
			jobs[i] = &job.Job{
				ID:      i + 1,
				Submit:  sim.Time(rj.submit),
				Runtime: sim.Duration(rj.runtime),
				Request: sim.Duration(rj.runtime),
				Nodes:   rj.nodes,
			}
		}
		// reference wants jobs in FCFS order (submit, then id)
		orderOK := true
		for i := 1; i < n; i++ {
			if refs[i-1].submit > refs[i].submit {
				orderOK = false
			}
		}
		if !orderOK {
			// sort both in lockstep by (submit, id)
			for i := 1; i < n; i++ {
				for k := i; k > 0 && (refs[k-1].submit > refs[k].submit); k-- {
					refs[k-1], refs[k] = refs[k], refs[k-1]
					jobs[k-1], jobs[k] = jobs[k], jobs[k-1]
				}
			}
		}

		referenceFCFS(refs, totalNodes, 5000)

		m := cluster.NewMachine(cluster.NewPartition("mira", totalNodes, availability.AlwaysOn{}))
		s := mustNew(t, Config{Machine: m, Oracle: true, DisableBackfill: true})
		for _, j := range jobs {
			s.Submit(j)
		}
		res := mustRun(t, s, 1e6)
		if res.Completed != n {
			return false
		}
		for i := range jobs {
			if !refs[i].started {
				return false // horizon too short for reference (shouldn't happen)
			}
			if float64(jobs[i].Start) != float64(refs[i].start) {
				t.Logf("seed %d job %d: sched start %v, reference %d",
					seed, jobs[i].ID, jobs[i].Start, refs[i].start)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

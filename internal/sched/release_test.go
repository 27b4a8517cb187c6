package sched

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/faults"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
)

// refEarliestStart is earliestStart as it was before the release index:
// it gathers p's running jobs from the running map, clamps non-oracle
// releases to the window end, sorts them by (release, nodes) and replays
// them. The differential test holds the indexed walk to it.
func refEarliestStart(s *Scheduler, j *job.Job, p *cluster.Partition, now sim.Time) sim.Time {
	if !s.eligible(j, p) {
		return infTime
	}
	const maxWindows = 400
	t := now
	for iter := 0; iter < maxWindows; iter++ {
		w, ok := p.Avail.NextUp(t)
		if !ok || w.Start >= s.deadline {
			return infTime
		}
		lb := t
		if w.Start > lb {
			lb = w.Start
		}
		req := s.attemptRequest(j)
		fits := func(at sim.Time) bool {
			if s.cfg.Oracle {
				return at+req <= w.End
			}
			if s.cfg.Predictor != nil && !s.alwaysOn(p) {
				return at+req <= s.cfg.Predictor.PredictedEnd(w.Start, at)
			}
			return true
		}
		if w.Start > now {
			if fits(lb) {
				return lb
			}
			t = w.End
			continue
		}
		free := p.Free()
		if free >= j.Nodes && fits(lb) {
			return lb
		}
		type rel struct {
			at    sim.Time
			nodes int
		}
		var rels []rel
		for _, rj := range s.running {
			if rj.p != p {
				continue
			}
			at := rj.j.Start + s.attemptRequest(rj.j)
			if !s.cfg.Oracle && at > w.End {
				at = w.End
			}
			rels = append(rels, rel{at, rj.j.Nodes})
		}
		sort.Slice(rels, func(a, b int) bool {
			if rels[a].at != rels[b].at {
				return rels[a].at < rels[b].at
			}
			return rels[a].nodes < rels[b].nodes
		})
		for _, r := range rels {
			if r.at > w.End {
				break
			}
			free += r.nodes
			if r.at > lb {
				lb = r.at
			}
			if free >= j.Nodes && fits(lb) && lb < w.End {
				return lb
			}
		}
		t = w.End
	}
	return infTime
}

// refExtraNodesAt is extraNodesAt as it was before the release index:
// a range over the running map with a WindowAt call per job.
func refExtraNodesAt(s *Scheduler, p *cluster.Partition, resTime sim.Time, reserved *job.Job) int {
	free := p.Free()
	for _, rj := range s.running {
		if rj.p != p {
			continue
		}
		end := rj.j.Start + s.attemptRequest(rj.j)
		if !s.cfg.Oracle {
			if w, ok := p.Avail.WindowAt(rj.j.Start); ok && end > w.End {
				end = w.End
			}
		}
		if end <= resTime {
			free += rj.j.Nodes
		}
	}
	extra := free - reserved.Nodes
	if extra < 0 {
		extra = 0
	}
	return extra
}

// agePredictor is an age-aware window predictor: the longer a window has
// lasted, the later it is expected to end.
type agePredictor struct{}

func (agePredictor) PredictedEnd(start, now sim.Time) sim.Time {
	return start + 300 + (now-start)/2
}

// diffMachine is a 64-node always-on partition plus a 64-node partition
// up 600 of every 1000 seconds.
func diffMachine() *cluster.Machine {
	return cluster.NewMachine(
		cluster.NewPartition("mira", 64, nil),
		cluster.NewPartition("zc", 64, availability.Periodic{Period: 1000, Uptime: 600}),
	)
}

// diffJobs is a seeded workload heavy enough to keep a deep queue behind
// a busy machine: 400 jobs arriving over 20000 s, requests overstating
// runtimes by up to 2x.
func diffJobs(seed int64) []*job.Job {
	r := rand.New(rand.NewSource(seed))
	jobs := make([]*job.Job, 0, 400)
	for i := 1; i <= 400; i++ {
		rt := sim.Time(50 + r.Intn(850))
		j := mkJob(i, sim.Time(r.Intn(20000)), rt, 1+r.Intn(48))
		j.Request = rt * sim.Time(1+r.Float64())
		jobs = append(jobs, j)
	}
	return jobs
}

// diffWorld is one seeded world the differential tests pause and probe.
type diffWorld struct {
	name  string
	build func(t *testing.T) Config
}

// diffWorlds are the differential tests' worlds on diffMachine: oracle
// WFP, kill-requeue with checkpoints, faults with brownouts and an
// age-aware predictor.
func diffWorlds() []diffWorld {
	return []diffWorld{
		{"oracle", func(t *testing.T) Config {
			return Config{Machine: diffMachine(), Oracle: true, Policy: WFP}
		}},
		{"kill-requeue", func(t *testing.T) Config {
			return Config{Machine: diffMachine(), CheckpointInterval: 100, CheckpointOverhead: 10}
		}},
		{"faulted-brownouts", func(t *testing.T) Config {
			inj, err := faults.New(faults.Config{
				Seed: 77,
				Nodes: map[string]faults.NodeFailures{
					"zc":   {MTBF: 2000, MeanRepair: 300, NodesPerFailure: 8},
					"mira": {MTBF: 5000, MeanRepair: 300, NodesPerFailure: 4},
				},
				ForecastErrSD: 60,
				BrownoutProb:  0.4,
				RetryLimit:    3,
				Backoff:       50,
			})
			if err != nil {
				t.Fatal(err)
			}
			return Config{Machine: diffMachine(), CheckpointInterval: 100, Faults: inj}
		}},
		{"predictor", func(t *testing.T) Config {
			return Config{Machine: diffMachine(), Predictor: agePredictor{}}
		}},
	}
}

// TestReleaseIndexMatchesReference pauses seeded runs at 60 instants and
// checks, at each, that the indexed earliestStart and extraNodesAt agree
// with the map-and-sort reference for every queued job on every
// partition. Every tenth pause also snapshots and restores, so the index
// Restore rebuilds is compared too. Config.Check verifies the index's
// own invariants after every event.
func TestReleaseIndexMatchesReference(t *testing.T) {
	const (
		deadline = 1e6
		pauses   = 60
		step     = 400 // seconds between pauses
	)
	for _, tc := range diffWorlds() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.build(t)
			cfg.Check = true
			s := mustNew(t, cfg)
			for _, j := range diffJobs(2016) {
				if err := s.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			busy := 0 // pauses with both queued and running jobs
			for k := 1; k <= pauses; k++ {
				s.cfg.StopAt = sim.Time(k * step)
				if _, err := s.Run(deadline); err != ErrInterrupted {
					t.Fatalf("pause %d: err = %v, want ErrInterrupted", k, err)
				}
				if k%10 == 0 {
					s = restoreFrom(t, s, tc.build(t))
				}
				if len(s.queue) > 0 && len(s.running) > 0 {
					busy++
				}
				compareWithReference(t, s)
			}
			if busy < 50 {
				t.Fatalf("only %d of %d pauses had both queued and running jobs; the comparison is too thin", busy, pauses)
			}
			s.cfg.StopAt = 0
			mustRun(t, s, deadline)
		})
	}
}

// restoreFrom snapshots s through JSON and restores it onto cfg, keeping
// the invariant checker on.
func restoreFrom(t *testing.T, s *Scheduler, cfg Config) *Scheduler {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatal(err)
	}
	cfg.Check = true
	r, err := Restore(cfg, unrunTrace(s), &parsed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// compareWithReference checks earliestStart and extraNodesAt against the
// reference functions for every queued job on every partition of the
// paused scheduler s. extraNodesAt is probed at each job's reserved start
// and at every running job's release and window end, where its
// end <= resTime boundary bites.
func compareWithReference(t *testing.T, s *Scheduler) {
	t.Helper()
	now := s.eng.Now()
	var probes []sim.Time
	for _, rj := range s.running {
		probes = append(probes, rj.rel.at, rj.rel.winEnd)
	}
	for _, p := range s.cfg.Machine.Partitions {
		for _, j := range s.queue {
			got, want := s.earliestStart(j, p, now), refEarliestStart(s, j, p, now)
			if got != want {
				t.Fatalf("t=%v: earliestStart(job %d, %s) = %v, reference %v", now, j.ID, p.Name, got, want)
			}
			for _, at := range append([]sim.Time{now, got}, probes...) {
				if got, want := s.extraNodesAt(p, at, j), refExtraNodesAt(s, p, at, j); got != want {
					t.Fatalf("t=%v: extraNodesAt(%s, %v, job %d) = %d, reference %d", now, p.Name, at, j.ID, got, want)
				}
			}
		}
	}
}

// TestReservationCountersPublished: the reservation-search counters
// reach the registry under "sched", where -metrics and /metrics read them.
func TestReservationCountersPublished(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustNew(t, Config{Machine: diffMachine(), Oracle: true, Metrics: reg})
	for _, j := range diffJobs(2016) {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s, 1e6)
	snap := reg.Snapshot()
	for _, c := range []struct {
		name string
		want int
	}{
		{"sched.earliest_start_calls", s.earliestCalls},
		{"sched.releases_scanned", s.releasesScanned},
	} {
		if got := snap.Counter(c.name); got == 0 || got != int64(c.want) {
			t.Errorf("%s = %d, want %d (nonzero)", c.name, got, c.want)
		}
	}
}

package sched

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"zccloud/internal/cluster"
	"zccloud/internal/job"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
)

// wfpSorter and refSortWFP are sortWFP as it was before the insertion
// sort: scores computed once, then sort.Sort over the queue and its
// scores together.
type wfpSorter struct {
	jobs   []*job.Job
	scores []float64
}

func (w *wfpSorter) Len() int { return len(w.jobs) }

func (w *wfpSorter) Less(a, b int) bool {
	if w.scores[a] != w.scores[b] {
		return w.scores[a] > w.scores[b]
	}
	return less(w.jobs[a], w.jobs[b])
}

func (w *wfpSorter) Swap(a, b int) {
	w.jobs[a], w.jobs[b] = w.jobs[b], w.jobs[a]
	w.scores[a], w.scores[b] = w.scores[b], w.scores[a]
}

func refSortWFP(queue []*job.Job, now sim.Time) {
	scores := make([]float64, len(queue))
	for i, j := range queue {
		wait := float64(now - j.Submit)
		if wait < 0 {
			wait = 0
		}
		r := wait / float64(j.Request)
		scores[i] = r * r * r * float64(j.Nodes)
	}
	sort.Sort(&wfpSorter{queue, scores})
}

// refEligible, refCanStartNow, refBestStart and refBackfillStart are the
// partition checks as they were before the per-pass partition view: the
// window, the longest window and the always-on test read per job and
// partition.
func refEligible(s *Scheduler, j *job.Job, p *cluster.Partition) bool {
	if j.Nodes > p.Nodes {
		return false
	}
	if s.cfg.Oracle && j.Request > p.Avail.MaxWindow() {
		return false
	}
	if !s.cfg.Oracle && s.cfg.PredictedWindow > 0 && !s.alwaysOn(p) &&
		j.Request > s.cfg.PredictedWindow {
		return false
	}
	return true
}

func refCanStartNow(s *Scheduler, j *job.Job, p *cluster.Partition, now sim.Time) bool {
	if !refEligible(s, j, p) || j.Nodes > p.Free() {
		return false
	}
	w, up := p.Avail.WindowAt(now)
	if !up {
		return false
	}
	if s.cfg.Oracle {
		if now+s.attemptRequest(j) > w.End {
			return false
		}
	} else if s.cfg.Predictor != nil && !s.alwaysOn(p) {
		if now+s.attemptRequest(j) > s.cfg.Predictor.PredictedEnd(w.Start, now) {
			return false
		}
	}
	return true
}

func refBestStart(s *Scheduler, j *job.Job, now sim.Time) *cluster.Partition {
	var best *cluster.Partition
	bestFrac := -1.0
	for _, p := range s.cfg.Machine.Partitions {
		if !refCanStartNow(s, j, p, now) {
			continue
		}
		frac := float64(p.Free()) / float64(p.Nodes)
		if frac > bestFrac {
			bestFrac = frac
			best = p
		}
	}
	return best
}

func refBackfillStart(s *Scheduler, j *job.Job, now sim.Time, resPart *cluster.Partition, resTime sim.Time, extra int) *cluster.Partition {
	var best *cluster.Partition
	bestFrac := -1.0
	for _, p := range s.cfg.Machine.Partitions {
		if !refCanStartNow(s, j, p, now) {
			continue
		}
		if p == resPart {
			if now+s.attemptRequest(j) > resTime && j.Nodes > extra {
				continue
			}
		}
		frac := float64(p.Free()) / float64(p.Nodes)
		if frac > bestFrac {
			bestFrac = frac
			best = p
		}
	}
	return best
}

// refPass is pass as it was before the partition view and the backfill
// cut: the reference sort, the reference partition checks, and a phase-3
// scan that tries every job up to BackfillDepth.
func refPass(s *Scheduler, now sim.Time) {
	s.acct.Passes++
	if s.cfg.Policy == WFP {
		refSortWFP(s.queue, now)
	}
	for len(s.queue) > 0 {
		j := s.queue[0]
		p := refBestStart(s, j, now)
		if p == nil {
			break
		}
		if !s.start(j, p, now, false) {
			return
		}
		s.queue = s.queue[1:]
	}
	if len(s.queue) == 0 || s.cfg.DisableBackfill {
		return
	}
	head := s.queue[0]
	resPart, resTime := s.earliestStartAnywhere(head, now)
	if resPart == nil {
		return
	}
	if s.acct.ResJob != head.ID || s.acct.ResTime != resTime {
		s.acct.ResJob, s.acct.ResTime = head.ID, resTime
		s.tracer.Trace(obs.Event{Time: now, Kind: obs.EvReserve, Job: head.ID,
			Partition: resPart.Name, Nodes: head.Nodes, Detail: float64(resTime)})
	}
	extra := s.extraNodesAt(resPart, resTime, head)
	depth := s.cfg.BackfillDepth
	if depth <= 0 || depth > len(s.queue)-1 {
		depth = len(s.queue) - 1
	}
	i := 1
	for scanned := 0; scanned < depth && i < len(s.queue); scanned++ {
		j := s.queue[i]
		p := refBackfillStart(s, j, now, resPart, resTime, extra)
		if p == nil {
			i++
			continue
		}
		if !s.start(j, p, now, true) {
			return
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		if p == resPart {
			extra = s.extraNodesAt(resPart, resTime, head)
		}
	}
}

func jobIDs(q []*job.Job) []int {
	ids := make([]int, len(q))
	for i, j := range q {
		ids[i] = j.ID
	}
	return ids
}

// TestSortWFPMatchesReference holds the insertion sort (and its fallback)
// to the sort.Sort reference on random, nearly sorted, reversed and
// all-tied queues. Requests and node counts come from small sets and
// some jobs submit after now (score 0), so many scores tie and the
// (Submit, ID) tiebreak decides.
func TestSortWFPMatchesReference(t *testing.T) {
	const now = 10000
	r := rand.New(rand.NewSource(17))
	randomQueue := func(n int) []*job.Job {
		q := make([]*job.Job, n)
		for i := range q {
			rt := sim.Time(1+r.Intn(4)) * 100
			q[i] = mkJob(i+1, sim.Time(r.Intn(12))*1000, rt, 1<<r.Intn(3))
		}
		r.Shuffle(n, func(a, b int) { q[a], q[b] = q[b], q[a] })
		return q
	}
	sorted := func(n int) []*job.Job {
		q := randomQueue(n)
		refSortWFP(q, now)
		return q
	}
	nearlySorted := func(n int) []*job.Job {
		q := sorted(n)
		for k := 0; k < n/20; k++ {
			i := r.Intn(n - 1)
			q[i], q[i+1] = q[i+1], q[i]
		}
		return q
	}
	reversed := func(n int) []*job.Job {
		q := sorted(n)
		slices.Reverse(q)
		return q
	}
	tied := func(n int) []*job.Job {
		q := make([]*job.Job, n)
		for i := range q {
			q[i] = mkJob(i+1, 500, 300, 4)
		}
		r.Shuffle(n, func(a, b int) { q[a], q[b] = q[b], q[a] })
		return q
	}
	check := func(t *testing.T, q []*job.Job) int {
		t.Helper()
		want := slices.Clone(q)
		refSortWFP(want, now)
		s := &Scheduler{queue: slices.Clone(q)}
		s.sortWFP(now)
		if got, want := jobIDs(s.queue), jobIDs(want); !slices.Equal(got, want) {
			t.Fatalf("sortWFP order %v, reference %v", got, want)
		}
		return s.sortFallbacks
	}

	for _, n := range []int{0, 1, 2, 3, 17, 300} {
		check(t, randomQueue(n))
		check(t, tied(n))
	}
	for k := 0; k < 200; k++ {
		check(t, randomQueue(r.Intn(120)))
	}
	if fb := check(t, nearlySorted(300)); fb != 0 {
		t.Errorf("nearly sorted queue fell back %d times, want 0", fb)
	}
	if fb := check(t, sorted(300)); fb != 0 {
		t.Errorf("sorted queue fell back %d times, want 0", fb)
	}
	// Reversing 300 jobs needs ~45k moves, far past the 8n+64 budget.
	if fb := check(t, reversed(300)); fb != 1 {
		t.Errorf("reversed queue fell back %d times, want 1", fb)
	}
}

// TestPassMatchesReference pauses seeded runs of every differential
// world under both policies and holds the pass to the reference pass of
// before the partition view and the backfill cut:
//
//   - at each pause, eligible, bestStart and backfillStart pick what the
//     per-job references pick for every queued job, with every partition
//     as the reserved one and several reservation times and spare-node
//     guards;
//   - from each pause, two restored copies run to the next pause, one
//     dispatching its passes to pass and one to refPass, at BackfillDepth
//     0 or 3 (alternately), and must end in equal snapshots.
//
// Every fourth pause continues the run itself through Snapshot+Restore.
func TestPassMatchesReference(t *testing.T) {
	const (
		deadline = 1e5 // a short horizon keeps the snapshots small
		pauses   = 12
		step     = 1500 // seconds between pauses
	)
	for _, w := range diffWorlds() {
		for _, policy := range []Policy{FCFS, WFP} {
			build := func(t *testing.T) Config {
				cfg := w.build(t)
				cfg.Policy = policy
				return cfg
			}
			t.Run(w.name+"/"+policy.String(), func(t *testing.T) {
				s := mustNew(t, build(t))
				for _, j := range diffJobs(2016) {
					if err := s.Submit(j); err != nil {
						t.Fatal(err)
					}
				}
				backfilled := 0 // backfills in the compared stretches
				for k := 1; k <= pauses; k++ {
					at := sim.Time(k * step)
					s.cfg.StopAt = at
					if _, err := s.Run(deadline); err != ErrInterrupted {
						t.Fatalf("pause %d: err = %v, want ErrInterrupted", k, err)
					}
					if k%4 == 0 {
						s = restoreFrom(t, s, build(t))
					}
					comparePartitionChecks(t, s, s.eng.Now())
					depth := 3 * (k % 2) // whole-queue and depth-3 scans, alternately
					backfilled += comparePasses(t, s, build, depth, at+step)
				}
				if backfilled < 25 {
					t.Fatalf("only %d backfills in the compared stretches; the comparison is too thin", backfilled)
				}
				s.cfg.StopAt = 0
				mustRun(t, s, deadline)
			})
		}
	}
}

// comparePartitionChecks holds eligible, bestStart and backfillStart to
// their references for every queued job of s at now, and for probe jobs
// sized to each partition's admission boundaries.
func comparePartitionChecks(t *testing.T, s *Scheduler, now sim.Time) {
	t.Helper()
	if len(s.queue) == 0 {
		return
	}
	s.viewPartitions(now)
	head := s.queue[0]
	for _, j := range append(boundaryProbes(s, now), s.queue...) {
		for _, p := range s.cfg.Machine.Partitions {
			if got, want := s.eligible(j, p), refEligible(s, j, p); got != want {
				t.Fatalf("t=%v: eligible(job %d, %s) = %v, reference %v", now, j.ID, p.Name, got, want)
			}
		}
		if got, want := s.bestStart(j, now), refBestStart(s, j, now); got != want {
			t.Fatalf("t=%v: bestStart(job %d) = %v, reference %v", now, j.ID, partName(got), partName(want))
		}
		for _, res := range s.cfg.Machine.Partitions {
			resTimes := []sim.Time{now, now + s.attemptRequest(j), s.earliestStart(head, res, now)}
			for _, resTime := range resTimes {
				for _, extra := range []int{0, j.Nodes - 1, j.Nodes, s.extraNodesAt(res, resTime, head)} {
					got := s.backfillStart(j, now, res, resTime, extra)
					want := refBackfillStart(s, j, now, res, resTime, extra)
					if got != want {
						t.Fatalf("t=%v: backfillStart(job %d, res %s@%v, extra %d) = %v, reference %v",
							now, j.ID, res.Name, resTime, extra, partName(got), partName(want))
					}
				}
			}
		}
	}
}

// boundaryProbes are jobs whose request lands on, just under or just
// over a partition's longest window, its current window's end or its
// predicted end, and whose size is one node or lands on its free pool.
func boundaryProbes(s *Scheduler, now sim.Time) []*job.Job {
	var probes []*job.Job
	for _, p := range s.cfg.Machine.Partitions {
		limits := []sim.Time{p.Avail.MaxWindow()}
		if w, up := p.Avail.WindowAt(now); up {
			limits = append(limits, w.End-now)
			if s.cfg.Predictor != nil {
				limits = append(limits, s.cfg.Predictor.PredictedEnd(w.Start, now)-now)
			}
		}
		if s.cfg.PredictedWindow > 0 {
			limits = append(limits, s.cfg.PredictedWindow)
		}
		for _, l := range limits {
			for _, req := range []sim.Time{l - 1, l, l + 1} {
				if req <= 0 || req > 1e9 {
					continue
				}
				for _, nodes := range []int{1, p.Free(), p.Free() + 1} {
					if nodes > 0 {
						probes = append(probes, &job.Job{ID: -1, Submit: now, Runtime: req, Request: req, Nodes: nodes})
					}
				}
			}
		}
	}
	return probes
}

// comparePasses restores two copies of a snapshot of s at the given
// BackfillDepth and dispatches their events up to until, sending one
// copy's passes to pass and the other's to refPass; the copies must end
// in equal snapshots. It returns the jobs backfilled on the way.
func comparePasses(t *testing.T, s *Scheduler, build func(*testing.T) Config, depth int, until sim.Time) int {
	t.Helper()
	blob := snapshotJSON(t, s)
	restore := func() *Scheduler {
		var snap Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			t.Fatal(err)
		}
		s, err := Restore(build(t), unrunTrace(s), &snap)
		if err != nil {
			t.Fatal(err)
		}
		s.cfg.BackfillDepth = depth
		return s
	}
	got, want := restore(), restore()
	before := got.acct.Backfilled
	dispatchUntil(got, until, (*Scheduler).pass)
	dispatchUntil(want, until, refPass)
	if got.err != nil || want.err != nil {
		t.Fatalf("depth %d: run errors: pass %v, reference %v", depth, got.err, want.err)
	}
	gs, err := got.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("t=%v depth %d: pass and reference pass diverge", until, depth)
	}
	return got.acct.Backfilled - before
}

// dispatchUntil is Run's event loop without its checks: it dispatches
// every event up to until, handing scheduling passes to pass.
func dispatchUntil(s *Scheduler, until sim.Time, pass func(*Scheduler, sim.Time)) {
	for s.err == nil {
		if t, ok := s.eng.NextTime(); !ok || t > until {
			return
		}
		now, pe, _ := s.eng.Next()
		if pe.Kind == evPass {
			s.acct.PassSet = false
			pass(s, now)
			continue
		}
		s.exec(pe, now)
	}
}

func snapshotJSON(t *testing.T, s *Scheduler) []byte {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func partName(p *cluster.Partition) string {
	if p == nil {
		return "<nil>"
	}
	return p.Name
}

// TestPassCountersPublished: the pass-cost counters reach the registry
// under "sched", where -metrics and /metrics read them, and stay out of
// the snapshot.
func TestPassCountersPublished(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustNew(t, Config{Machine: diffMachine(), Oracle: true, Policy: WFP, Metrics: reg})
	for _, j := range diffJobs(2016) {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, s, 1e6)
	snap := reg.Snapshot()
	if got := snap.Counter("sched.queue_scanned"); got == 0 || got != int64(s.queueScanned) {
		t.Errorf("sched.queue_scanned = %d, want %d (nonzero)", got, s.queueScanned)
	}
	if got := snap.Counter("sched.wfp_sort_fallbacks"); got != int64(s.sortFallbacks) {
		t.Errorf("sched.wfp_sort_fallbacks = %d, want %d", got, s.sortFallbacks)
	}
}

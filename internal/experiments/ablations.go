package experiments

import (
	"fmt"

	"zccloud/internal/core"
	"zccloud/internal/sim"
	"zccloud/internal/stranded"
)

// BackfillAblation quantifies the scheduler design choice DESIGN.md calls
// out: EASY backfill vs plain FCFS, on both the base system and the
// Mira-ZCCloud system. Without backfill, a blocked capability job
// head-of-line-blocks the whole machine — and the intermittent partition
// compounds it, because jobs that fit the remaining window cannot jump
// the queue.
func BackfillAblation(l *Lab) (*Table, error) {
	t := &Table{
		ID:      "backfill",
		Title:   "Ablation: EASY backfill vs plain FCFS (1xWorkload)",
		Columns: []string{"System", "Scheduler", "Avg wait (h)", "Completed"},
	}
	zc := core.DutyAvailability(0.5, zcPhase)
	var specs []runSpec
	var rows [][2]string
	for _, sys := range []struct {
		name   string
		factor float64
	}{{"Mira", 0}, {"M-Z 1xMira@50%", 1}} {
		for _, fcfs := range []bool{false, true} {
			r := l.mz(1, sys.factor, zc)
			r.sys.DisableBackfill = fcfs
			name := "EASY backfill"
			if fcfs {
				name = "plain FCFS"
			}
			specs = append(specs, r)
			rows = append(rows, [2]string{sys.name, name})
		}
	}
	res, err := l.runAll(specs)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		t.AddRow(row[0], row[1], res[i].AvgWaitHrs, res[i].done())
	}
	t.AddNote("backfill is essential on intermittent partitions: FCFS cannot slip " +
		"window-fitting jobs past a blocked capability job")
	return t, nil
}

// Checkpoint explores checkpoint/restart — the follow-on mechanism for
// running on unpredictable stranded power without an oracle: killed jobs
// resume from their last checkpoint instead of restarting from scratch.
func Checkpoint(l *Lab) (*Table, error) {
	t := &Table{
		ID:    "checkpoint",
		Title: "Future work: checkpoint/restart on stranded power (NetPrice0, 1xMira, 1xWorkload)",
		Columns: []string{"Scheduler", "Avg wait (h)", "Completed",
			"Requeued jobs", "Wasted node-h (%)"},
	}
	spAvail, err := l.BestSiteAvailability(stranded.Model{Kind: stranded.NetPrice, Threshold: 0})
	if err != nil {
		return nil, err
	}
	oracle := l.mz(1, 1, spAvail)
	blind := oracle
	blind.sys.NonOracle = true
	ckpt := func(iv sim.Duration) runSpec {
		r := blind
		r.sys.CheckpointInterval = iv
		r.sys.CheckpointOverhead = 2 * sim.Minute
		return r
	}
	res, err := l.runAll([]runSpec{oracle, blind, ckpt(sim.Hour), ckpt(15 * sim.Minute)})
	if err != nil {
		return nil, err
	}
	for i, name := range []string{
		"oracle (paper)",
		"blind, no checkpoints",
		"blind, checkpoint 1 h (2 min overhead)",
		"blind, checkpoint 15 min (2 min overhead)",
	} {
		m := res[i]
		t.AddRow(name, m.AvgWaitHrs, m.done(), m.requeued, fmt.Sprintf("%.1f%%", m.wastedPct()))
	}
	t.AddNote("checkpointing bounds re-executed work at the cost of periodic write-out " +
		"stalls; with this trace's short jobs (1.7 h average) blind requeue already wastes " +
		"little, so checkpoint overhead dominates — the mechanism pays off for long-running " +
		"jobs whose runtime approaches the window length")
	return t, nil
}

// BurstinessAblation quantifies the workload design choice DESIGN.md
// calls out: submission campaigns (users submitting job ensembles). The
// Mira baseline's congestion — and therefore ZCCloud's relative benefit —
// depends on how bursty arrivals are.
func BurstinessAblation(l *Lab) (*Table, error) {
	t := &Table{
		ID:      "burstiness",
		Title:   "Ablation: arrival burstiness (campaign mean) vs ZCCloud benefit",
		Columns: []string{"Campaign mean", "Mira wait (h)", "M-Z wait (h)", "Reduction"},
	}
	campaigns := []float64{1, 2, 4}
	var specs []runSpec
	for _, cm := range campaigns {
		mira, mz := l.mz(1, 0, nil), l.mz(1, 1, core.DutyAvailability(0.5, zcPhase))
		mira.trace = traceSpec{campaign: cm}
		mz.trace = mira.trace
		specs = append(specs, mira, mz)
	}
	res, err := l.runAll(specs)
	if err != nil {
		return nil, err
	}
	for i, cm := range campaigns {
		base, mz := res[2*i], res[2*i+1]
		red := "-"
		if base.AvgWaitHrs > 0 {
			red = fmt.Sprintf("%.0f%%", 100*(1-mz.AvgWaitHrs/base.AvgWaitHrs))
		}
		t.AddRow(fmt.Sprintf("%g", cm), base.AvgWaitHrs, mz.AvgWaitHrs, red)
	}
	t.AddNote("campaign mean 1 is a plain non-homogeneous Poisson process; the default is 2, " +
		"calibrated so baseline congestion matches what the paper's Figure 7 comparisons imply")
	return t, nil
}

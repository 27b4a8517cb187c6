package experiments

import (
	"fmt"

	"zccloud/internal/core"
	"zccloud/internal/faults"
	"zccloud/internal/sim"
	"zccloud/internal/stranded"
)

// Resilience stress-tests the ZCCloud configuration under imperfect
// hardware and imperfect forecasts: stochastic node failures (Weibull
// MTBF draws), forecast error on window ends, and brownouts that leave a
// fraction of the partition powered. It sweeps MTBF × checkpoint
// interval × recovery policy and reports goodput (useful node-hours over
// delivered node-hours), kills, abandonments, and wait-time shifts, then
// compares the swept-optimal checkpoint interval against the Young/Daly
// approximation √(2·δ·MTBF).
func Resilience(l *Lab) (*Table, error) {
	t := &Table{
		ID:    "resilience",
		Title: "Extension: fault injection — MTBF × checkpoint × recovery policy (NetPrice0, 1xMira, 1xWorkload)",
		Columns: []string{"MTBF", "Checkpoint", "Policy", "Avg wait (h)",
			"Goodput %", "Killed", "Abandoned", "Completed"},
	}
	avail, err := l.BestSiteAvailability(stranded.Model{Kind: stranded.NetPrice, Threshold: 0})
	if err != nil {
		return nil, err
	}
	opt := l.opt
	seed := opt.FaultSeed
	if seed == 0 {
		seed = opt.Seed + 77
	}
	nodesPerFailure := opt.MiraNodes / 64
	if nodesPerFailure < 1 {
		nodesPerFailure = 1
	}

	faultCfg := func() *faults.Config {
		return &faults.Config{
			Seed:          seed,
			ForecastErrSD: 30 * sim.Minute,
			BrownoutProb:  opt.BrownoutProb,
			RetryLimit:    opt.RetryLimit,
		}
	}
	// Each run is labelled by its row's MTBF, checkpoint and policy cells.
	var specs []runSpec
	var labels [][3]string
	add := func(fc *faults.Config, mtbf, ckpt sim.Duration, mtbfCell, ckptCell, policy string) {
		r := l.mz(1, 1, avail)
		r.sys.NonOracle = true
		if ckpt > 0 {
			r.sys.CheckpointInterval = ckpt
			r.sys.CheckpointOverhead = 2 * sim.Minute
		}
		if fc != nil && mtbf > 0 {
			fc.Nodes = map[string]faults.NodeFailures{
				core.ZCPartition: {MTBF: mtbf, WeibullShape: 0.7, NodesPerFailure: nodesPerFailure},
			}
		}
		r.sys.Faults = fc
		specs = append(specs, r)
		labels = append(labels, [3]string{mtbfCell, ckptCell, policy})
	}

	add(nil, 0, 0, "none", "off", "requeue-front")
	sweep := []sim.Duration{6 * sim.Hour, 24 * sim.Hour}
	if opt.FaultMTBFHours > 0 {
		sweep = []sim.Duration{sim.Duration(opt.FaultMTBFHours * float64(sim.Hour))}
	}
	intervals := []sim.Duration{0, 15 * sim.Minute, sim.Hour, 4 * sim.Hour}
	ckptLabel := map[sim.Duration]string{
		0: "off", 15 * sim.Minute: "15 min", sim.Hour: "1 h", 4 * sim.Hour: "4 h",
	}
	for _, mtbf := range sweep {
		for _, iv := range intervals {
			add(faultCfg(), mtbf, iv, fmt.Sprintf("%.0f h", mtbf.Hours()), ckptLabel[iv], "requeue-front")
		}
	}
	// Recovery-policy comparison at the harshest MTBF with 15-min checkpoints.
	mtbf := sweep[0]
	back := faultCfg()
	back.Policy = faults.RequeueBack
	back.Backoff = 5 * sim.Minute
	add(back, mtbf, 15*sim.Minute, fmt.Sprintf("%.0f h", mtbf.Hours()), "15 min", "requeue-back, 5 min backoff")
	bounded := faultCfg()
	bounded.Backoff = 5 * sim.Minute
	bounded.RetryLimit = 3
	add(bounded, mtbf, 15*sim.Minute, fmt.Sprintf("%.0f h", mtbf.Hours()), "15 min", "requeue-front, retry ≤ 3")

	res, err := l.runAll(specs)
	if err != nil {
		return nil, err
	}
	for i, m := range res {
		t.AddRow(labels[i][0], labels[i][1], labels[i][2], m.AvgWaitHrs,
			fmt.Sprintf("%.1f%%", m.goodputPct()), m.Killed, m.Abandoned, m.done())
	}
	swept := res[1:]
	for _, mtbf := range sweep {
		bestIv, bestGoodput := sim.Duration(0), -1.0
		for _, iv := range intervals {
			if g := swept[0].goodputPct(); g > bestGoodput {
				bestGoodput, bestIv = g, iv
			}
			swept = swept[1:]
		}
		yd := faults.YoungDaly(2*sim.Minute, mtbf)
		t.AddNote("MTBF %.0f h: swept-best checkpoint interval %s (%.1f%% goodput); "+
			"Young/Daly √(2·δ·MTBF) with δ = 2 min suggests %.0f min",
			mtbf.Hours(), ckptLabel[bestIv], bestGoodput, float64(yd)/float64(sim.Minute))
	}

	t.AddNote("fault-free baseline waits %.2f h; fault rows add node failures "+
		"(Weibull shape 0.7, %d nodes per failure, 30 min repair), 30 min forecast-error SD, "+
		"and brownout probability %.2f retaining half the partition", res[0].AvgWaitHrs,
		nodesPerFailure, opt.BrownoutProb)
	t.AddNote("goodput = completed jobs' node-hours over delivered node-hours; " +
		"the gap is re-executed work, checkpoint stalls, and abandoned attempts")
	return t, nil
}

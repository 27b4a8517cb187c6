package experiments

import (
	"fmt"

	"zccloud/internal/availability"
	"zccloud/internal/core"
	"zccloud/internal/forecast"
	"zccloud/internal/sim"
	"zccloud/internal/stats"
	"zccloud/internal/stranded"
)

// Fig13 reproduces Figure 13: periodic resources vs SP-driven resources
// at the same duty factor (1xMira ZCCloud, 1xWorkload).
func Fig13(l *Lab) (*Table, error) {
	best := make([]stranded.SiteStats, len(stranded.PaperModels))
	specs := []runSpec{l.mz(1, 0, nil)}
	for i, m := range stranded.PaperModels {
		var err error
		if best[i], err = l.BestSite(m); err != nil {
			return nil, err
		}
		if best[i].DutyFactor <= 0 {
			continue
		}
		spAvail, err := l.BestSiteAvailability(m)
		if err != nil {
			return nil, err
		}
		specs = append(specs, l.mz(1, 1, spAvail), l.mz(1, 1, core.DutyAvailability(best[i].DutyFactor, zcPhase)))
	}
	res, err := l.runAll(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig13",
		Title:   "Periodic vs SP-driven ZCCloud at matched duty factor (1xMira, 1xWorkload)",
		Columns: []string{"SP model", "Duty factor", "Mira-only (h)", "Periodic (h)", "SP-driven (h)"},
	}
	mira, next := res[0], res[1:]
	for i, m := range stranded.PaperModels {
		if best[i].DutyFactor <= 0 {
			t.AddRow(m.String(), "0%", mira.AvgWaitHrs, "-", "-")
			continue
		}
		sp, per := next[0], next[1]
		next = next[2:]
		t.AddRow(m.String(), fmt.Sprintf("%.1f%%", 100*best[i].DutyFactor),
			mira.AvgWaitHrs, per.AvgWaitHrs, sp.AvgWaitHrs)
	}
	t.AddNote("paper: SP-driven ≈ periodic — slightly worse for LMP (short intervals), " +
		"better at 80%% duty (NetPrice intervals can exceed 24 h)")
	return t, nil
}

// waitSystem is one row of a wait-vs-workload grid: a ZCCloud of the
// given size and availability next to Mira (size 0 is Mira alone).
type waitSystem struct {
	label string
	size  float64
	avail availability.Model
}

// waitGrid adds one row per system to t: its average wait at each
// workload scale, or X where it cannot complete the workload.
func (l *Lab) waitGrid(t *Table, scales []float64, systems []waitSystem) error {
	var specs []runSpec
	for _, sys := range systems {
		for _, s := range scales {
			specs = append(specs, l.mz(s, sys.size, sys.avail))
		}
	}
	res, err := l.runAll(specs)
	if err != nil {
		return err
	}
	for _, sys := range systems {
		row := []any{sys.label}
		for _, m := range res[:len(scales)] {
			row = append(row, waitOrX(m.AvgWaitHrs, m.WorkloadCompleted))
		}
		res = res[len(scales):]
		t.AddRow(row...)
	}
	return nil
}

// Fig14 reproduces Figure 14: average wait vs workload scale vs SP model
// (1xMira ZCCloud on the best site of each model).
func Fig14(l *Lab) (*Table, error) {
	scales := []float64{1, 1.25, 1.5}
	systems := []waitSystem{{label: "Mira"}}
	for _, mm := range stranded.PaperModels {
		spAvail, err := l.BestSiteAvailability(mm)
		if err != nil {
			return nil, err
		}
		systems = append(systems, waitSystem{"M-Z " + mm.String(), 1, spAvail})
	}
	t := &Table{
		ID:      "fig14",
		Title:   "Average wait (h) vs workload vs SP model (1xMira ZCCloud)",
		Columns: append([]string{"System"}, scaleLabels(scales)...),
	}
	if err := l.waitGrid(t, scales, systems); err != nil {
		return nil, err
	}
	t.AddNote("X marks workloads the configuration cannot complete (paper's notation); " +
		"paper: improvements range 20-90%%, LMP models fail at 1.5x")
	return t, nil
}

// Fig15 reproduces Figure 15: average wait vs workload vs ZCCloud size
// under the NetPrice0 model.
func Fig15(l *Lab) (*Table, error) {
	scales := []float64{1, 1.25, 1.5, 1.75}
	spAvail, err := l.BestSiteAvailability(stranded.Model{Kind: stranded.NetPrice, Threshold: 0})
	if err != nil {
		return nil, err
	}
	systems := []waitSystem{{label: "Mira"}}
	for _, size := range []float64{1, 2, 4} {
		systems = append(systems, waitSystem{fmt.Sprintf("M-Z %gxMira", size), size, spAvail})
	}
	t := &Table{
		ID:      "fig15",
		Title:   "Average wait (h) vs workload vs ZCCloud size (NetPrice0 SP-driven)",
		Columns: append([]string{"System"}, scaleLabels(scales)...),
	}
	if err := l.waitGrid(t, scales, systems); err != nil {
		return nil, err
	}
	t.AddNote("paper: each added ZCCloud increment lowers waits; 2xMira absorbs 1.75x workload")
	return t, nil
}

// Multisite explores the paper's Section VIII future-work direction: a
// ZCCloud drawing on the union of the top-N sites' stranded power.
func Multisite(l *Lab) (*Table, error) {
	t := &Table{
		ID:      "multisite",
		Title:   "Future work: multi-site ZCCloud (NetPrice0, 1xMira, 1xWorkload)",
		Columns: []string{"Sites", "Union duty factor", "Avg wait (h)"},
	}
	observed, err := l.SPObserved()
	if err != nil {
		return nil, err
	}
	model := stranded.Model{Kind: stranded.NetPrice, Threshold: 0}
	res, err := l.SPNodeResults(model)
	if err != nil {
		return nil, err
	}
	cum := stranded.CumulativeDutyFactor(res, observed)
	var sites []int
	var specs []runSpec
	for _, n := range []int{1, 3, 7} {
		if n > len(res) {
			break
		}
		avail, err := l.MultiSiteAvailability(model, n)
		if err != nil {
			return nil, err
		}
		sites = append(sites, n)
		specs = append(specs, l.mz(1, 1, avail))
	}
	runs, err := l.runAll(specs)
	if err != nil {
		return nil, err
	}
	for i, n := range sites {
		t.AddRow(n, fmt.Sprintf("%.1f%%", 100*cum[n-1]), runs[i].AvgWaitHrs)
	}
	return t, nil
}

// KillRequeue is a sensitivity ablation beyond the paper: the scheduler
// without the window-end oracle, killing and resubmitting interrupted
// jobs.
func KillRequeue(l *Lab) (*Table, error) {
	spAvail, err := l.BestSiteAvailability(stranded.Model{Kind: stranded.NetPrice, Threshold: 0})
	if err != nil {
		return nil, err
	}
	oracle := l.mz(1, 1, spAvail)
	blind := oracle
	blind.sys.NonOracle = true
	res, err := l.runAll([]runSpec{oracle, blind})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "killrequeue",
		Title:   "Ablation: oracle vs kill/requeue scheduling (NetPrice0, 1xMira, 1xWorkload)",
		Columns: []string{"Mode", "Avg wait (h)", "Completed", "Requeued jobs"},
	}
	for i, mode := range []string{"oracle", "kill/requeue"} {
		t.AddRow(mode, res[i].AvgWaitHrs, res[i].done(), res[i].requeued)
	}
	return t, nil
}

// Prediction explores the paper's Section VIII "use of prediction"
// direction: when the scheduler does not know window ends (non-oracle),
// how much of the oracle's performance does a simple duration predictor
// recover? The predictor assumes every window lasts a fixed quantile of
// the site's historical SP interval durations.
func Prediction(l *Lab) (*Table, error) {
	t := &Table{
		ID:      "prediction",
		Title:   "Future work: window-end prediction (NetPrice0, 1xMira, 1xWorkload)",
		Columns: []string{"Scheduler", "Avg wait (h)", "Completed", "Requeued jobs", "Wasted node-h (%)"},
	}
	model := stranded.Model{Kind: stranded.NetPrice, Threshold: 0}
	best, err := l.BestSite(model)
	if err != nil {
		return nil, err
	}
	spAvail, err := l.BestSiteAvailability(model)
	if err != nil {
		return nil, err
	}
	durations := make([]float64, 0, len(best.Intervals))
	for _, iv := range best.Intervals {
		durations = append(durations, iv.Hours())
	}
	if len(durations) == 0 {
		t.AddNote("no SP intervals at this scale; skipped")
		return t, nil
	}
	quantile := func(p float64) float64 { return stats.Percentile(durations, p) }

	durSamples := make([]sim.Duration, len(best.Intervals))
	for i, iv := range best.Intervals {
		durSamples[i] = sim.Duration(iv.Hours() * float64(sim.Hour))
	}
	hazard, err := forecast.Median(durSamples)
	if err != nil {
		return nil, err
	}
	oracle := l.mz(1, 1, spAvail)
	blind := oracle
	blind.sys.NonOracle = true
	fixed := func(hours float64) runSpec {
		r := blind
		r.sys.PredictedWindow = sim.Duration(hours * float64(sim.Hour))
		return r
	}
	aware := blind
	aware.sys.Predictor = hazard
	res, err := l.runAll([]runSpec{oracle, blind, fixed(quantile(50)), fixed(quantile(90)), aware})
	if err != nil {
		return nil, err
	}
	for i, name := range []string{
		"oracle (paper)",
		"blind kill/requeue",
		fmt.Sprintf("fixed median (%.1f h)", quantile(50)),
		fmt.Sprintf("fixed p90 (%.1f h)", quantile(90)),
		"hazard (age-aware median)",
	} {
		m := res[i]
		t.AddRow(name, m.AvgWaitHrs, m.done(), m.requeued, fmt.Sprintf("%.1f%%", m.wastedPct()))
	}
	t.AddNote("wasted node-hours are partial executions lost to kills; fixed-duration " +
		"predictors underperform blind kill/requeue for two reasons: interval COUNTS are " +
		"dominated by short runs while stranded TIME lives in the heavy tail, and a fixed " +
		"horizon stops admitting into a long window once its age exceeds the prediction " +
		"(stale-window throttling) — the age-aware hazard predictor fixes both and " +
		"effectively recovers the oracle's performance without any oracle knowledge")
	return t, nil
}

func scaleLabels(scales []float64) []string {
	out := make([]string, len(scales))
	for i, s := range scales {
		out[i] = fmt.Sprintf("%gx", s)
	}
	return out
}

func waitOrX(wait float64, completed bool) string {
	if !completed {
		return "X"
	}
	return trimFloat(wait)
}

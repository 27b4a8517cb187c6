package experiments

import (
	"fmt"

	"zccloud/internal/miso"
	"zccloud/internal/powergrid"
	"zccloud/internal/stranded"
)

// CAISO explores the paper's "additional ISO's with different renewable
// mixes" future-work direction: the same stranded-power analysis on a
// solar-dominated California-like grid. Solar stranding follows the duck
// curve — midday negative prices, every day, bounded by daylight — so SP
// intervals are shorter but far more regular than MISO's wind episodes.
func CAISO(l *Lab) (*Table, error) {
	opt := l.Opt()
	// A CAISO dataset at the lab's market scale. Solar SP requires the
	// minimum-power guard: prices can stay negative into hours when
	// panels produce nothing.
	gen, err := miso.NewGenerator(miso.Config{
		Seed:      opt.Seed + 1,
		Days:      opt.MarketDays,
		WindSites: opt.WindSites,
		Scenario:  miso.ScenarioCAISO,
	})
	if err != nil {
		return nil, err
	}
	const minMW = 1.0
	analyses := make([]*stranded.Analysis, len(stranded.PaperModels))
	for i, m := range stranded.PaperModels {
		analyses[i] = stranded.NewAnalysisMin(m, opt.WindSites, minMW)
	}
	if err := gen.Stream(func(batch []miso.Record) error {
		for _, a := range analyses {
			for _, r := range batch {
				a.Observe(r)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	observed := gen.Intervals()

	t := &Table{
		ID:    "caiso",
		Title: "Future work: a solar-dominated ISO (CAISO-like) vs the paper's MISO",
		Columns: []string{"Model", "Kind", "Best duty (CAISO)", "Best duty (MISO)",
			"CAISO <1 h", "1-6 h", "6-24 h", ">24 h", "Union duty, 7 sites"},
	}
	for i, m := range stranded.PaperModels {
		res := analyses[i].Results()
		cum := stranded.CumulativeDutyFactor(res, observed)
		union7 := 0.0
		if len(cum) >= 7 {
			union7 = cum[6]
		} else if len(cum) > 0 {
			union7 = cum[len(cum)-1]
		}
		misoBest, err := l.BestSite(m)
		if err != nil {
			return nil, err
		}
		// Best site of each renewable kind: solar shows the duck-curve
		// signature, wind the familiar multi-day episodes.
		for _, kind := range []powergrid.GenType{powergrid.Solar, powergrid.Wind} {
			var best *stranded.SiteStats
			for k := range res {
				if gen.SiteKind(res[k].Site) == kind && res[k].DutyFactor > 0 {
					best = &res[k]
					break // results are duty-factor ordered
				}
			}
			if best == nil {
				t.AddRow(m.String(), kind.String(), "0%", "-", "-", "-", "-", "-", "-")
				continue
			}
			br := stranded.DurationBreakdown(best.Intervals)
			t.AddRow(m.String(), kind.String(),
				fmt.Sprintf("%.1f%%", 100*best.DutyFactor),
				fmt.Sprintf("%.1f%%", 100*misoBest.DutyFactor),
				pct(br[0]), pct(br[1]), pct(br[2]), pct(br[3]),
				fmt.Sprintf("%.1f%%", 100*union7))
		}
	}
	sum := gen.Summary()
	t.AddNote("CAISO-like fleet: %.0f%% of energy from renewables (≈70%% solar), %.0f GWh curtailed; "+
		"solar SP is diurnal — duty factors are capped by daylight but arrive on a daily schedule, "+
		"a better match for the paper's periodic model than wind's multi-day episodes",
		100*sum.WindGWh/sum.TotalGWh, sum.WindCurtailedGWh)
	return t, nil
}

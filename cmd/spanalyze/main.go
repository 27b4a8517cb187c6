// Command spanalyze runs the paper's stranded-power analysis (Section V)
// over a market dataset: per-site duty factors and stranded MW under the
// LMP[x] and NetPrice[x] models, multi-site cumulative duty factors, and
// the Top500 comparison.
//
// It reads a CSV written by misogen, or synthesizes a dataset in-process:
//
//	spanalyze -input market.csv -sites 50
//	spanalyze -synth -days 120 -sites 100 -threshold 0
package main

import (
	"flag"
	"fmt"
	"os"

	"zccloud"
)

func main() {
	var (
		input     = flag.String("input", "", "market CSV from misogen (empty with -synth)")
		synth     = flag.Bool("synth", false, "synthesize the dataset in-process instead of reading CSV")
		seed      = flag.Int64("seed", 1, "seed for -synth")
		days      = flag.Float64("days", 120, "dataset span for -synth")
		sites     = flag.Int("sites", 50, "number of renewable sites")
		scenario  = flag.String("scenario", "miso", "grid scenario for -synth: miso (wind) or caiso (solar)")
		threshold = flag.Float64("threshold", 0, "price threshold x in $/MWh for LMP[x] and NetPrice[x]")
		minMW     = flag.Float64("min-mw", 0, "minimum offered MW for SP to count (use ~1 for solar)")
		topN      = flag.Int("top", 10, "how many top sites to print")
	)
	flag.Parse()
	if !*synth && *input == "" {
		fatal("need -input FILE or -synth")
	}

	models := []zccloud.SPModel{
		{Kind: zccloud.LMP, Threshold: *threshold},
		{Kind: zccloud.NetPrice, Threshold: *threshold},
	}
	analyses := make([]*zccloud.SPAnalysis, len(models))
	for i, m := range models {
		analyses[i] = zccloud.NewSPAnalysisMin(m, *sites, *minMW)
	}

	var observed int64
	if *synth {
		gen, err := zccloud.NewMarketDataset(zccloud.MarketConfig{
			Seed: *seed, Days: *days, WindSites: *sites,
			Scenario: zccloud.MarketScenario(*scenario),
		})
		if err != nil {
			fatal("%v", err)
		}
		if err := gen.Stream(func(batch []zccloud.MarketRecord) error {
			for _, a := range analyses {
				for _, r := range batch {
					a.Observe(r)
				}
			}
			return nil
		}); err != nil {
			fatal("%v", err)
		}
		observed = gen.Intervals()
	} else {
		f, err := os.Open(*input)
		if err != nil {
			fatal("opening market CSV: %v", err)
		}
		defer f.Close()
		maxIv := int64(-1)
		err = zccloud.ReadMarketCSVFile(*input, f, func(r zccloud.MarketRecord) error {
			if int(r.Site) >= *sites {
				return fmt.Errorf("record site %d >= -sites %d", r.Site, *sites)
			}
			for _, a := range analyses {
				a.Observe(r)
			}
			if r.Interval > maxIv {
				maxIv = r.Interval
			}
			return nil
		})
		if err != nil {
			fatal("%v", err)
		}
		observed = maxIv + 1
	}

	for i, m := range models {
		res := analyses[i].Results()
		fmt.Printf("\n=== %s ===\n", m)
		fmt.Printf("%4s  %6s  %10s  %10s  %10s\n", "rank", "site", "duty", "avg SP MW", "intervals")
		n := *topN
		if n > len(res) {
			n = len(res)
		}
		for k := 0; k < n; k++ {
			st := res[k]
			fmt.Printf("%4d  %6d  %9.1f%%  %10.1f  %10d\n",
				k+1, st.Site, 100*st.DutyFactor, st.AvgSPMW, len(st.Intervals))
		}
		cum := zccloud.CumulativeDutyFactor(res, observed)
		mw := zccloud.CumulativeAvgSPMW(res)
		fmt.Printf("cumulative duty factor: ")
		for _, k := range []int{1, 2, 3, 5, 7, 10} {
			if k <= len(cum) {
				fmt.Printf("%d:%.0f%% ", k, 100*cum[k-1])
			}
		}
		fmt.Printf("\ncumulative stranded MW: ")
		for _, k := range []int{1, 2, 3, 5, 7, 10} {
			if k <= len(mw) {
				fmt.Printf("%d:%.0fMW ", k, mw[k-1])
			}
		}
		fmt.Println()
		// Top500 coverage
		for _, rank := range []int{1, 10, 50, 250} {
			need := zccloud.Top500CumulativePowerMW(rank)
			covered := 0
			for i, v := range mw {
				if v >= need {
					covered = i + 1
					break
				}
			}
			if covered > 0 {
				fmt.Printf("Top %d systems (%.0f MW): %d sites\n", rank, need, covered)
			} else {
				fmt.Printf("Top %d systems (%.0f MW): not covered by %d sites\n", rank, need, len(mw))
			}
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spanalyze: "+format+"\n", args...)
	os.Exit(1)
}

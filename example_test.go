package zccloud_test

// Godoc examples for the public facade. Each is a complete, runnable
// fragment of the paper's pipeline with deterministic output.

import (
	"fmt"

	"zccloud"
)

// ExampleSimulate runs the paper's headline comparison at toy scale:
// Mira alone vs Mira plus a same-size periodic ZCCloud.
func ExampleSimulate() {
	trace, err := zccloud.GenerateWorkload(zccloud.WorkloadConfig{Seed: 1, Days: 7})
	if err != nil {
		panic(err)
	}

	base, err := zccloud.Simulate(zccloud.RunConfig{Trace: trace.Clone()})
	if err != nil {
		panic(err)
	}
	mz, err := zccloud.Simulate(zccloud.RunConfig{
		Trace: trace.Clone(),
		System: zccloud.SystemConfig{
			ZCFactor: 1,
			ZCAvail:  zccloud.NewPeriodic(0.5, 20*zccloud.Hour),
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ZCCloud reduces wait: %v\n", mz.AvgWaitHrs < base.AvgWaitHrs)
	fmt.Printf("all jobs completed: %v\n", mz.WorkloadCompleted)
	// Output:
	// ZCCloud reduces wait: true
	// all jobs completed: true
}

// ExampleNewSPAnalysis extracts stranded-power intervals from a small
// synthetic market and reports the best site's duty factor band.
func ExampleNewSPAnalysis() {
	gen, err := zccloud.NewMarketDataset(zccloud.MarketConfig{
		Seed: 1, Days: 14, WindSites: 20,
	})
	if err != nil {
		panic(err)
	}
	an := zccloud.NewSPAnalysis(zccloud.SPModel{Kind: zccloud.NetPrice, Threshold: 0}, 20)
	if err := gen.Stream(func(batch []zccloud.MarketRecord) error {
		for _, r := range batch {
			an.Observe(r)
		}
		return nil
	}); err != nil {
		panic(err)
	}
	best := an.Results()[0]
	fmt.Printf("stranded power exists: %v\n", best.DutyFactor > 0)
	fmt.Printf("duty factor below 100%%: %v\n", best.DutyFactor < 1)
	// Output:
	// stranded power exists: true
	// duty factor below 100%: true
}

// ExampleMeasureDutyFactor shows the availability-window algebra.
func ExampleMeasureDutyFactor() {
	// Up the first 6 hours of every day.
	m := zccloud.NewPeriodic(0.25, 0)
	df := zccloud.MeasureDutyFactor(m, 0, 10*zccloud.Day)
	fmt.Printf("duty factor: %.2f\n", df)

	union := zccloud.UnionAvailability(0, 10*zccloud.Day, m, zccloud.NewPeriodic(0.25, 12*zccloud.Hour))
	fmt.Printf("two offset sites: %.2f\n", zccloud.MeasureDutyFactor(union, 0, 10*zccloud.Day))
	// Output:
	// duty factor: 0.25
	// two offset sites: 0.50
}

// ExampleEconParams compares deployment economics.
func ExampleEconParams() {
	newHW := zccloud.DefaultEconParams()
	recycled := zccloud.RecycledEconParams()

	trad, _ := newHW.CostPerNodeHour(zccloud.TraditionalDeployment, 1)
	cont, _ := recycled.CostPerNodeHour(zccloud.ContainerDeployment, 0.6)
	fmt.Printf("recycled container at 60%% duty beats a new machine room: %v\n", cont < trad)

	be, _ := recycled.BreakevenAgainst(newHW)
	fmt.Printf("breakeven duty factor below 30%%: %v\n", be < 0.3)
	// Output:
	// recycled container at 60% duty beats a new machine room: true
	// breakeven duty factor below 30%: true
}

// ExampleTop500CumulativePowerMW anchors Figure 12's comparison line.
func ExampleTop500CumulativePowerMW() {
	fmt.Printf("Top system: %.2f MW\n", zccloud.Top500PowerMW(1))
	fmt.Printf("Top 10 combined: %.1f MW\n", zccloud.Top500CumulativePowerMW(10))
	// Output:
	// Top system: 17.81 MW
	// Top 10 combined: 64.5 MW
}

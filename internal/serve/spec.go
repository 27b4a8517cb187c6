package serve

import (
	"fmt"
	"path/filepath"
	"strings"

	"zccloud/internal/availability"
	"zccloud/internal/cluster"
	"zccloud/internal/core"
	"zccloud/internal/experiments"
	"zccloud/internal/faults"
	"zccloud/internal/obs"
	"zccloud/internal/sim"
	"zccloud/internal/workload"
)

// Spec is one submitted unit of work: either a single scheduling
// simulation (the default) or a paper experiment selected by Experiment.
// The zero value of every field is a sensible default, so `{}` is a
// valid spec (Mira only, 28 days, seed 42). All fields are bounded; a
// spec that fails Validate is rejected at admission with a 400, never
// enqueued.
type Spec struct {
	// Name is an optional client label echoed back in status.
	Name string `json:"name,omitempty"`

	// Experiment, when set, runs a paper artifact by id ("fig5",
	// "table6", ...) instead of a single simulation. The simulation
	// fields below are ignored except Seed.
	Experiment string `json:"experiment,omitempty"`
	// Full runs the experiment at paper scale; the default is the quick
	// preset (a service should opt in to hour-long cells, not default
	// to them).
	Full bool `json:"full,omitempty"`

	// Workload.
	Seed        int64   `json:"seed,omitempty"`        // default 42
	Days        float64 `json:"days,omitempty"`        // default 28
	Scale       float64 `json:"scale,omitempty"`       // default 1 (the paper's NxWorkload)
	MiraNodes   int     `json:"mira_nodes,omitempty"`  // default 49,152
	Utilization float64 `json:"utilization,omitempty"` // default Table I's 0.84

	// System.
	ZCFactor     float64 `json:"zc_factor,omitempty"`      // ZCCloud size as a multiple of Mira
	ZCDuty       float64 `json:"zc_duty,omitempty"`        // periodic duty factor, default 0.5
	ZCPhaseHours float64 `json:"zc_phase_hours,omitempty"` // daily hour the window opens, default 20
	KillRequeue  bool    `json:"kill_requeue,omitempty"`   // non-oracle mode

	// Fault injection; any non-zero field arms the injector.
	MTBFHours        float64 `json:"mtbf_hours,omitempty"`
	BrownoutProb     float64 `json:"brownout_prob,omitempty"`
	ForecastErrHours float64 `json:"forecast_err_hours,omitempty"`
	RetryLimit       int     `json:"retry_limit,omitempty"`
	BackoffHours     float64 `json:"backoff_hours,omitempty"`
	BackoffJitter    bool    `json:"backoff_jitter,omitempty"`
	FaultSeed        int64   `json:"fault_seed,omitempty"` // default Seed+1

	// Run control.
	Check bool `json:"check,omitempty"` // validate scheduler invariants per event
	// TimeoutSeconds caps the run's wall-clock time. Zero inherits the
	// server default; a positive value may only tighten it.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`

	// Renewable-aware admission (meaningful only when the server runs
	// with a power schedule; otherwise accepted and ignored).
	//
	// DeadlineSeconds is the wall-clock budget from submission within
	// which the run must complete; admission checks the forecasted
	// stranded-power capacity before it, and a parked run past it fails
	// with the deadline outcome. Zero means no deadline — the run may
	// park across closed windows indefinitely.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// CostHintSeconds estimates the run's execution wall-time; zero
	// falls back to the server's observed average.
	CostHintSeconds float64 `json:"cost_hint_seconds,omitempty"`
	// PowerPolicy overrides the server's degrade mode for this
	// submission: "shed" (429 + Retry-After) or "park" (accept
	// degraded). Empty inherits the server policy.
	PowerPolicy string `json:"power_policy,omitempty"`

	// Trace, when set, records the run's full event trace under the
	// server's data dir (<data>/traces/<name>). It must be a bare file
	// name; the suffix picks the format — ".zct" binary columnar,
	// ".jsonl.gz" gzipped JSONL, ".jsonl" plain. The trace lands
	// atomically when the run completes (or parks, as a usable prefix)
	// and is echoed back as RunInfo.Trace; a resumed run copies the
	// prefix in first, so the completed trace holds every event of the
	// run. Requires a data dir; ignored for experiment specs, which
	// aggregate many runs.
	Trace string `json:"trace,omitempty"`
}

func (sp Spec) withDefaults() Spec {
	if sp.Seed == 0 {
		sp.Seed = 42
	}
	if sp.Days == 0 {
		sp.Days = 28
	}
	if sp.Scale == 0 {
		sp.Scale = 1
	}
	if sp.MiraNodes == 0 {
		sp.MiraNodes = cluster.MiraNodes
	}
	if sp.ZCDuty == 0 {
		sp.ZCDuty = 0.5
	}
	if sp.ZCPhaseHours == 0 {
		sp.ZCPhaseHours = 20
	}
	if sp.FaultSeed == 0 {
		sp.FaultSeed = sp.Seed + 1
	}
	return sp
}

// maxPowerSeconds bounds deadline and cost hints to a year: beyond it
// the value is a unit mistake, not a plan.
const maxPowerSeconds = 366 * 24 * 3600

// Validate rejects malformed or unreasonable specs before admission.
func (sp Spec) Validate() error {
	d := sp.withDefaults()
	if d.Experiment != "" {
		if _, err := experiments.ByID(d.Experiment); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	switch {
	case d.Days < 0 || sp.Days < 0:
		return fmt.Errorf("serve: days %v < 0", sp.Days)
	case d.Days > 3660:
		return fmt.Errorf("serve: days %v > 3660", d.Days)
	case d.Scale < 0.01 || d.Scale > 100:
		return fmt.Errorf("serve: scale %v outside [0.01, 100]", d.Scale)
	case d.MiraNodes < 1 || d.MiraNodes > 1<<22:
		return fmt.Errorf("serve: mira_nodes %d outside [1, %d]", d.MiraNodes, 1<<22)
	case d.Utilization < 0 || d.Utilization > 1:
		return fmt.Errorf("serve: utilization %v outside [0, 1]", d.Utilization)
	case d.ZCFactor < 0 || d.ZCFactor > 16:
		return fmt.Errorf("serve: zc_factor %v outside [0, 16]", d.ZCFactor)
	case d.ZCDuty <= 0 || d.ZCDuty > 1:
		return fmt.Errorf("serve: zc_duty %v outside (0, 1]", d.ZCDuty)
	case d.ZCPhaseHours < 0 || d.ZCPhaseHours >= 24:
		return fmt.Errorf("serve: zc_phase_hours %v outside [0, 24)", d.ZCPhaseHours)
	case d.MTBFHours < 0:
		return fmt.Errorf("serve: mtbf_hours %v < 0", d.MTBFHours)
	case d.BrownoutProb < 0 || d.BrownoutProb > 1:
		return fmt.Errorf("serve: brownout_prob %v outside [0, 1]", d.BrownoutProb)
	case d.ForecastErrHours < 0:
		return fmt.Errorf("serve: forecast_err_hours %v < 0", d.ForecastErrHours)
	case d.RetryLimit < 0:
		return fmt.Errorf("serve: retry_limit %d < 0", d.RetryLimit)
	case d.BackoffHours < 0:
		return fmt.Errorf("serve: backoff_hours %v < 0", d.BackoffHours)
	case d.TimeoutSeconds < 0:
		return fmt.Errorf("serve: timeout_seconds %v < 0", d.TimeoutSeconds)
	case d.DeadlineSeconds < 0:
		return fmt.Errorf("serve: deadline_seconds %v < 0", d.DeadlineSeconds)
	case d.DeadlineSeconds > maxPowerSeconds:
		return fmt.Errorf("serve: deadline_seconds %v > %v (a year)", d.DeadlineSeconds, float64(maxPowerSeconds))
	case d.CostHintSeconds < 0:
		return fmt.Errorf("serve: cost_hint_seconds %v < 0", d.CostHintSeconds)
	case d.CostHintSeconds > maxPowerSeconds:
		return fmt.Errorf("serve: cost_hint_seconds %v > %v (a year)", d.CostHintSeconds, float64(maxPowerSeconds))
	}
	switch sp.PowerPolicy {
	case "", "shed", "park":
	default:
		return fmt.Errorf("serve: power_policy %q not one of shed, park", sp.PowerPolicy)
	}
	if sp.Trace != "" {
		if strings.ContainsAny(sp.Trace, `/\`) || sp.Trace != filepath.Base(sp.Trace) || strings.HasPrefix(sp.Trace, ".") {
			return fmt.Errorf("serve: trace %q must be a bare file name", sp.Trace)
		}
		switch {
		case strings.HasSuffix(sp.Trace, ".zct"),
			strings.HasSuffix(sp.Trace, ".jsonl"),
			strings.HasSuffix(sp.Trace, ".jsonl.gz"):
		default:
			return fmt.Errorf("serve: trace %q must end in .zct, .jsonl, or .jsonl.gz", sp.Trace)
		}
	}
	return nil
}

// faultConfig arms the injector when any fault field is set.
func (sp Spec) faultConfig() *faults.Config {
	return core.FaultKnobs{
		Seed:             sp.FaultSeed,
		MTBFHours:        sp.MTBFHours,
		BrownoutProb:     sp.BrownoutProb,
		ForecastErrHours: sp.ForecastErrHours,
		RetryLimit:       sp.RetryLimit,
		BackoffHours:     sp.BackoffHours,
		BackoffJitter:    sp.BackoffJitter,
	}.Config(sp.MiraNodes, sp.ZCFactor > 0)
}

// runConfig turns a (defaulted, validated) simulation spec into a
// core.RunConfig, generating its workload. A fresh run and a resumed one
// build the same config: the resume's snapshot is fingerprinted against
// this trace.
func (sp Spec) runConfig(o obs.Options) (core.RunConfig, error) {
	tr, err := workload.Generate(workload.Config{
		Seed:              sp.Seed,
		Days:              sp.Days,
		SystemNodes:       sp.MiraNodes,
		TargetUtilization: sp.Utilization,
		Scale:             sp.Scale,
	})
	if err != nil {
		return core.RunConfig{}, fmt.Errorf("serve: generating workload: %w", err)
	}
	var zc availability.Model
	if sp.ZCFactor > 0 {
		zc = core.DutyAvailability(sp.ZCDuty, sim.Time(sp.ZCPhaseHours)*sim.Hour)
	}
	o.Check = o.Check || sp.Check
	return core.RunConfig{
		Trace: tr,
		System: core.SystemConfig{
			MiraNodes: sp.MiraNodes,
			ZCFactor:  sp.ZCFactor,
			ZCAvail:   zc,
			NonOracle: sp.KillRequeue,
			Faults:    sp.faultConfig(),
		},
		Obs: o,
	}, nil
}

// Package wind generates per-site wind capacity-factor time series with
// the temporal statistics that shape stranded power: multi-hour
// persistence, seasonal and diurnal cycles, and cross-site correlation
// within a weather region.
//
// The model is a latent Ornstein–Uhlenbeck process per region plus an OU
// process per site, pushed through a logistic squash onto [0, 1]. Regional
// processes give sites in the same region correlated output — which limits
// how much duty factor multi-site ZCCloud deployments can add (paper,
// Figure 11) — while site processes add local texture. Seasonal (annual)
// and diurnal cycles modulate the mean: Midwest wind is strongest in
// winter/spring and at night.
//
// All series are deterministic functions of the seed.
package wind

import (
	"fmt"
	"math"
	"math/rand"
)

// StepMinutes is the market interval the field advances by.
const StepMinutes = 5

// FieldConfig describes a wind field.
type FieldConfig struct {
	Regions int // number of weather regions
	Sites   int // total wind sites, assigned round-robin to regions
	Seed    int64
	// MeanCF is the long-run average capacity factor; defaults to 0.38
	// (typical Midwest wind fleet).
	MeanCF float64
	// StartHours offsets the seasonal/diurnal phase: 0 is midnight,
	// January 1.
	StartHours float64
}

func (c FieldConfig) withDefaults() FieldConfig {
	if c.MeanCF == 0 {
		c.MeanCF = 0.38
	}
	return c
}

// Validate reports configuration errors.
func (c FieldConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Regions <= 0:
		return fmt.Errorf("wind: regions %d <= 0", c.Regions)
	case c.Sites <= 0:
		return fmt.Errorf("wind: sites %d <= 0", c.Sites)
	case c.MeanCF <= 0 || c.MeanCF >= 1:
		return fmt.Errorf("wind: mean capacity factor %v outside (0,1)", c.MeanCF)
	}
	return nil
}

// OU time constants, in hours: regions persist for about a day, sites for
// a few hours.
const (
	regionTauHrs = 30.0
	siteTauHrs   = 5.0
	regionSigma  = 1.05 // stationary SD of the regional latent process
	siteSigma    = 0.55
)

// Field is the evolving wind field. Use NewField, then Step each 5-minute
// interval and read CapacityFactor per site.
type Field struct {
	cfg      FieldConfig
	rng      *rand.Rand
	regionX  []float64
	siteX    []float64
	siteReg  []int
	bias     float64 // logistic offset hitting MeanCF
	interval int64
	// seas and diur are the current interval's annual and daily cycle
	// terms, shared by every site (set by cycles).
	seas, diur float64
}

// NewFieldWithRegions creates a field with an explicit site→region
// assignment (len(siteRegions) sites; values in [0, regions)). Use this
// when sites must match a power grid's geography.
func NewFieldWithRegions(regions int, siteRegions []int, seed int64, meanCF, startHours float64) (*Field, error) {
	f, err := NewField(FieldConfig{
		Regions:    regions,
		Sites:      len(siteRegions),
		Seed:       seed,
		MeanCF:     meanCF,
		StartHours: startHours,
	})
	if err != nil {
		return nil, err
	}
	for s, r := range siteRegions {
		if r < 0 || r >= regions {
			return nil, fmt.Errorf("wind: site %d region %d outside [0,%d)", s, r, regions)
		}
		f.siteReg[s] = r
	}
	return f, nil
}

// NewField creates a field; the latent states start at their stationary
// distribution so there is no burn-in transient.
func NewField(cfg FieldConfig) (*Field, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Field{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		regionX: make([]float64, cfg.Regions),
		siteX:   make([]float64, cfg.Sites),
		siteReg: make([]int, cfg.Sites),
	}
	// Solve logistic(bias) ≈ MeanCF at the latent mean. The latent spread
	// makes realized mean differ slightly; a first-order correction on the
	// logit is enough for the tests' tolerance.
	f.bias = math.Log(cfg.MeanCF / (1 - cfg.MeanCF))
	for r := range f.regionX {
		f.regionX[r] = f.rng.NormFloat64() * regionSigma
	}
	for s := range f.siteX {
		f.siteX[s] = f.rng.NormFloat64() * siteSigma
		f.siteReg[s] = s % cfg.Regions
	}
	f.cycles()
	return f, nil
}

// Sites returns the number of sites.
func (f *Field) Sites() int { return f.cfg.Sites }

// Region returns the region index of a site.
func (f *Field) Region(site int) int { return f.siteReg[site] }

// Interval returns the number of 5-minute steps taken.
func (f *Field) Interval() int64 { return f.interval }

// Step advances the field one 5-minute interval.
func (f *Field) Step() {
	dtHrs := float64(StepMinutes) / 60
	stepOU(f.rng, f.regionX, regionTauHrs, regionSigma, dtHrs)
	stepOU(f.rng, f.siteX, siteTauHrs, siteSigma, dtHrs)
	f.interval++
	f.cycles()
}

// cycles computes the seasonal and diurnal terms of the current
// interval, which are the same for every site.
func (f *Field) cycles() {
	hrs := f.cfg.StartHours + float64(f.interval)*StepMinutes/60
	f.seas, f.diur = seasonal(hrs), diurnal(hrs)
}

// stepOU advances mean-zero OU processes with time constant tau and
// stationary SD sigma by dt (exact discretization).
func stepOU(rng *rand.Rand, xs []float64, tauHrs, sigma, dtHrs float64) {
	a := math.Exp(-dtHrs / tauHrs)
	noise := sigma * math.Sqrt(1-a*a)
	for i := range xs {
		xs[i] = a*xs[i] + noise*rng.NormFloat64()
	}
}

// CapacityFactor returns site's current capacity factor in [0, 1].
func (f *Field) CapacityFactor(site int) float64 {
	lat := f.bias +
		f.regionX[f.siteReg[site]] +
		f.siteX[site] +
		f.seas + f.diur
	return logistic(lat)
}

// seasonal is the annual cycle on the latent logit: peak in late winter,
// trough in late summer (Midwest wind climatology). hrs counts from the
// dataset start, taken as January 1.
func seasonal(hrs float64) float64 {
	yearFrac := math.Mod(hrs/(24*365), 1)
	return 0.55 * math.Cos(2*math.Pi*(yearFrac-0.12))
}

// diurnal is the within-day cycle on the logit: nights are windier.
func diurnal(hrs float64) float64 {
	dayFrac := math.Mod(hrs/24, 1)
	return 0.25 * math.Cos(2*math.Pi*(dayFrac-0.12))
}

func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

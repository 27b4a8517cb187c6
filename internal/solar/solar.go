// Package solar generates per-site solar capacity-factor series for the
// CAISO-style scenario (the paper's future-work direction of "additional
// ISO's with different renewable mixes").
//
// Capacity factor = clear-sky envelope × cloud transmission. The envelope
// is a deterministic day arc with seasonal daylight length; clouds are a
// latent Ornstein–Uhlenbeck process per region plus per site, squashed to
// (0, 1]. Unlike wind, solar output is exactly zero at night — which is
// what makes its stranded-power intervals strictly diurnal.
package solar

import (
	"fmt"
	"math"
	"math/rand"
)

// StepMinutes is the market interval the field advances by.
const StepMinutes = 5

// FieldConfig describes a solar field.
type FieldConfig struct {
	Regions int
	Sites   int
	Seed    int64
	// StartHours offsets the seasonal/diurnal phase: 0 is midnight Jan 1.
	StartHours float64
	// PeakCF is the clear-sky noon capacity factor; defaults to 0.85
	// (inverter loading ratio below 1).
	PeakCF float64
}

func (c FieldConfig) withDefaults() FieldConfig {
	if c.PeakCF == 0 {
		c.PeakCF = 0.85
	}
	return c
}

// Validate reports configuration errors.
func (c FieldConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Regions <= 0:
		return fmt.Errorf("solar: regions %d <= 0", c.Regions)
	case c.Sites <= 0:
		return fmt.Errorf("solar: sites %d <= 0", c.Sites)
	case c.PeakCF <= 0 || c.PeakCF > 1:
		return fmt.Errorf("solar: peak CF %v outside (0,1]", c.PeakCF)
	}
	return nil
}

// cloud-process constants: regional weather persists ~20 h, site haze ~3 h.
const (
	regionTauHrs = 20.0
	siteTauHrs   = 3.0
	regionSigma  = 1.0
	siteSigma    = 0.4
	cloudBias    = 1.4 // logistic offset: mostly-clear climate (CA)
)

// Field is the evolving solar field.
type Field struct {
	cfg      FieldConfig
	rng      *rand.Rand
	regionX  []float64
	siteX    []float64
	siteReg  []int
	interval int64
	// env is the current interval's clear-sky envelope times PeakCF,
	// shared by every site (set by envelope).
	env float64
}

// NewField creates a field at its stationary distribution.
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
	for r := range f.regionX {
		f.regionX[r] = f.rng.NormFloat64() * regionSigma
	}
	for s := range f.siteX {
		f.siteX[s] = f.rng.NormFloat64() * siteSigma
		f.siteReg[s] = s % cfg.Regions
	}
	f.envelope()
	return f, nil
}

// NewFieldWithRegions creates a field with explicit site→region mapping.
func NewFieldWithRegions(regions int, siteRegions []int, seed int64, startHours float64) (*Field, error) {
	f, err := NewField(FieldConfig{
		Regions:    regions,
		Sites:      len(siteRegions),
		Seed:       seed,
		StartHours: startHours,
	})
	if err != nil {
		return nil, err
	}
	for s, r := range siteRegions {
		if r < 0 || r >= regions {
			return nil, fmt.Errorf("solar: site %d region %d outside [0,%d)", s, r, regions)
		}
		f.siteReg[s] = r
	}
	return f, nil
}

// Sites returns the number of sites.
func (f *Field) Sites() int { return f.cfg.Sites }

// Region returns the region of a site.
func (f *Field) Region(site int) int { return f.siteReg[site] }

// Interval returns the number of steps taken.
func (f *Field) Interval() int64 { return f.interval }

// Step advances the field one 5-minute interval.
func (f *Field) Step() {
	dt := float64(StepMinutes) / 60
	stepOU(f.rng, f.regionX, regionTauHrs, regionSigma, dt)
	stepOU(f.rng, f.siteX, siteTauHrs, siteSigma, dt)
	f.interval++
	f.envelope()
}

// envelope computes the clear-sky envelope of the current interval,
// which is the same for every site.
func (f *Field) envelope() {
	hrs := f.cfg.StartHours + float64(f.interval)*StepMinutes/60
	f.env = ClearSky(hrs) * f.cfg.PeakCF
}

func stepOU(rng *rand.Rand, xs []float64, tauHrs, sigma, dtHrs float64) {
	a := math.Exp(-dtHrs / tauHrs)
	noise := sigma * math.Sqrt(1-a*a)
	for i := range xs {
		xs[i] = a*xs[i] + noise*rng.NormFloat64()
	}
}

// CapacityFactor returns the site's current capacity factor in [0, 1].
func (f *Field) CapacityFactor(site int) float64 {
	if f.env <= 0 {
		return 0
	}
	cloud := logistic(cloudBias + f.regionX[f.siteReg[site]] + f.siteX[site])
	return f.env * cloud
}

// ClearSky returns the normalized clear-sky envelope in [0, 1] at hrs from
// midnight January 1: a sinusoidal day arc whose half-length follows the
// season (CA latitudes: ~9.5 h of daylight in December, ~14.5 h in June).
func ClearSky(hrs float64) float64 {
	hod := math.Mod(hrs, 24)
	doy := math.Mod(hrs/24, 365)
	halfDay := (9.5 + (14.5-9.5)/2*(1+math.Cos(2*math.Pi*(doy-172)/365))) / 2
	x := (hod - 12) / halfDay // -1..1 across the daylight arc
	if x <= -1 || x >= 1 {
		return 0
	}
	return math.Cos(x * math.Pi / 2)
}

func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

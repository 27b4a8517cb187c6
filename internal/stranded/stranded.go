// Package stranded implements the ZCCloud paper's stranded-power (SP)
// analysis (Section V): identifying, per generation site, the intervals
// during which grid power has little or no economic value, and deriving
// the metrics that determine whether those intervals can host computing —
// duty factor, interval durations, and average stranded megawatts.
//
// Two model families are supported (paper, Table V):
//
//	LMP[x]      — SP available in any 5-minute interval with LMP < $x.
//	NetPrice[x] — SP available over a maximal run of intervals whose
//	              power-weighted average price stays below $x; deep
//	              negative prices let a run extend through short
//	              positive-price stretches (paper, Figure 10).
//
// Analyzers are online: they consume records one at a time, so a
// 28-month × 200-site dataset streams through without materializing.
package stranded

import (
	"fmt"
	"sort"

	"zccloud/internal/availability"
	"zccloud/internal/miso"
	"zccloud/internal/sim"
)

// ModelKind distinguishes the two SP definition families.
type ModelKind int

// SP model families (paper, Table V).
const (
	LMP ModelKind = iota
	NetPrice
)

// Model is one SP definition: a family and a price threshold in $/MWh.
type Model struct {
	Kind      ModelKind
	Threshold float64
}

// String formats like the paper: "LMP0", "NetPrice5".
func (m Model) String() string {
	k := "LMP"
	if m.Kind == NetPrice {
		k = "NetPrice"
	}
	return fmt.Sprintf("%s%g", k, m.Threshold)
}

// PaperModels are the four models Section VI evaluates.
var PaperModels = []Model{
	{LMP, 0}, {LMP, 5}, {NetPrice, 0}, {NetPrice, 5},
}

// Interval is one stranded-power interval of a site.
type Interval struct {
	Start, End int64 // 5-minute interval indices, half-open [Start, End)
	// AvgMW is the mean delivered power over the interval — power sold at
	// worthless prices, available to a co-located load instead.
	AvgMW float64
	// AvgCurtailedMW is the mean dispatch-down amount over the interval.
	AvgCurtailedMW float64
	// AvgAvailableMW is the mean offered power (economic max) — what a
	// co-located ZCCloud could draw: delivered plus curtailed.
	AvgAvailableMW float64
	// NetPrice is the power-weighted mean LMP over the interval.
	NetPrice float64
}

// Len returns the interval length in 5-minute steps.
func (iv Interval) Len() int64 { return iv.End - iv.Start }

// Hours returns the interval duration in hours.
func (iv Interval) Hours() float64 {
	return float64(iv.Len()) * miso.IntervalMinutes / 60
}

// MaxBridgeSteps bounds how many consecutive records a NetPrice run may
// tentatively hold above threshold before giving up (24 hours of 5-minute
// intervals). The paper's long NetPrice intervals — some beyond 24 hours
// (Section VI) — arise from deep negative nighttime prices outweighing
// mildly positive daytime stretches in the power-weighted average; a full
// day above threshold without recovery closes the run.
const MaxBridgeSteps = 288

// rec is one buffered market observation.
type rec struct {
	interval int64
	lmp      float64
	mw       float64
	maxMW    float64
}

// runAccum accumulates a (committed) run.
type runAccum struct {
	start     int64
	end       int64 // exclusive
	sumPxMWh  float64
	sumMWh    float64
	sumMW     float64
	sumCurtMW float64
	sumP      float64
	n         int64
}

func (r *runAccum) add(x rec) {
	energy := x.mw * miso.IntervalMinutes / 60
	r.sumPxMWh += x.lmp * energy
	r.sumMWh += energy
	r.sumMW += x.mw
	r.sumCurtMW += x.maxMW - x.mw
	r.sumP += x.lmp
	r.n++
	r.end = x.interval + 1
}

// addAccum folds another accumulator in (used to commit the pending tail).
func (r *runAccum) addAccum(o runAccum) {
	r.sumPxMWh += o.sumPxMWh
	r.sumMWh += o.sumMWh
	r.sumMW += o.sumMW
	r.sumCurtMW += o.sumCurtMW
	r.sumP += o.sumP
	r.n += o.n
	if o.n > 0 {
		r.end = o.end
	}
}

func (r *runAccum) mean() float64 {
	if r.sumMWh > 0 {
		return r.sumPxMWh / r.sumMWh
	}
	if r.n > 0 {
		return r.sumP / float64(r.n)
	}
	return 0
}

func (r *runAccum) interval() Interval {
	return Interval{
		Start:          r.start,
		End:            r.end,
		AvgMW:          r.sumMW / float64(r.n),
		AvgCurtailedMW: r.sumCurtMW / float64(r.n),
		AvgAvailableMW: (r.sumMW + r.sumCurtMW) / float64(r.n),
		NetPrice:       r.mean(),
	}
}

// SiteAnalyzer extracts SP intervals for one site under one model. Feed
// records in interval order with Observe, then Finish (or Stats).
//
// For NetPrice models the analyzer commits records to the current run only
// while the run's power-weighted mean price stays below the threshold;
// records that push the mean above it are held in a pending buffer of at
// most MaxBridgeSteps. If later deep-negative records pull the cumulative
// mean back under, the pending records are absorbed (the bridging effect);
// otherwise the run closes at its last good record and the pending records
// are rescanned as fresh input. Every emitted interval therefore satisfies
// the NetPrice bound exactly, over the actual records it spans.
type SiteAnalyzer struct {
	model Model
	minMW float64

	intervals []Interval
	observed  int64

	open    bool
	run     runAccum // committed prefix of the current run
	pend    []rec    // tentative tail (NetPrice only)
	pendSum runAccum // running sums of pend, kept in lockstep
	last    int64
	// spare is the flush scratch: flushPending rescans the old pending
	// records while the new tail grows in *spare, then leaves the old
	// buffer there for the next flush. The sites of an Analysis share
	// one spare.
	spare *[]rec
}

// NewSiteAnalyzer creates an analyzer for one site.
func NewSiteAnalyzer(model Model) *SiteAnalyzer {
	return NewSiteAnalyzerMin(model, 0)
}

// NewSiteAnalyzerMin creates an analyzer that additionally requires at
// least minMW of offered power for SP to count: a record below the floor
// hard-breaks any run. Essential for solar sites, whose price can stay
// negative into the evening while the panels produce nothing — intervals
// without power cannot host computing.
func NewSiteAnalyzerMin(model Model, minMW float64) *SiteAnalyzer {
	return &SiteAnalyzer{model: model, minMW: minMW, spare: new([]rec)}
}

// Observe consumes the site's record for the next 5-minute interval.
// Records must arrive in increasing interval order.
func (a *SiteAnalyzer) Observe(interval int64, lmp, deliveredMW, economicMaxMW float64) {
	if a.open && interval != a.last+1 {
		a.closeRun() // a data gap closes any open run
	}
	a.observed++
	a.last = interval
	a.scan(rec{interval, lmp, deliveredMW, economicMaxMW})
}

// scan runs the state machine on one record (used for both live input and
// pending-buffer replays).
func (a *SiteAnalyzer) scan(x rec) {
	if a.minMW > 0 && x.maxMW < a.minMW {
		// No usable power: stranded or not, nothing can run here.
		a.closeRun()
		return
	}
	below := x.lmp < a.model.Threshold
	if a.model.Kind == LMP {
		switch {
		case below && !a.open:
			a.open = true
			a.run = runAccum{start: x.interval}
			a.run.add(x)
		case below:
			a.run.add(x)
		case a.open:
			a.closeRun()
		}
		return
	}
	// NetPrice
	if !a.open {
		if below { // first record's mean is its own price
			a.open = true
			a.run = runAccum{start: x.interval}
			a.run.add(x)
		}
		return
	}
	// Tentatively include the pending tail plus x; commit if the
	// cumulative power-weighted mean clears the threshold.
	trial := a.run
	trial.addAccum(a.pendSum)
	trial.add(x)
	if trial.mean() < a.model.Threshold {
		a.run = trial
		a.pend = a.pend[:0]
		a.pendSum = runAccum{}
		return
	}
	a.pend = append(a.pend, x)
	a.pendSum.add(x)
	if len(a.pend) > MaxBridgeSteps {
		a.flushPending()
	}
}

// flushPending closes the committed run and rescans the pending records.
// The rescan re-pends into the spare buffer, and the flushed buffer
// becomes the spare. The rescan never flushes again: every pending record
// met the minMW floor, and it re-pends at most MaxBridgeSteps of them.
func (a *SiteAnalyzer) flushPending() {
	pend := a.pend
	a.pend = (*a.spare)[:0]
	a.pendSum = runAccum{}
	a.emit()
	a.open = false
	for _, p := range pend {
		a.scan(p)
	}
	*a.spare = pend[:0]
}

// closeRun finalizes the current run; pending records are rescanned so a
// trailing stranded stretch inside them is not lost. Each flush emits a
// non-empty committed run and consumes at least one pending record, so
// the loop terminates.
func (a *SiteAnalyzer) closeRun() {
	for a.open {
		if len(a.pend) > 0 {
			a.flushPending()
			continue
		}
		a.emit()
		a.open = false
	}
}

func (a *SiteAnalyzer) emit() {
	if a.run.n == 0 {
		return
	}
	a.intervals = append(a.intervals, a.run.interval())
}

// Finish closes any open run and returns the site's SP intervals.
func (a *SiteAnalyzer) Finish() []Interval {
	a.closeRun()
	return a.intervals
}

// SiteStats are the per-site metrics of Section V.
type SiteStats struct {
	Site      int
	Model     Model
	Observed  int64 // intervals observed
	Intervals []Interval
	// DutyFactor is the fraction of observed time SP was available.
	DutyFactor float64
	// AvgSPMW is the time-weighted mean stranded power during SP
	// intervals — dispatch-down (economic max − delivered), the paper's
	// "power that is generated, but cannot be used" that a co-located
	// ZCCloud consumes.
	AvgSPMW float64
	// AvgDeliveredMW is the time-weighted mean cleared power during SP
	// intervals.
	AvgDeliveredMW float64
	// AvgAvailableMW is the time-weighted mean offered power (economic
	// max) during SP intervals.
	AvgAvailableMW float64
}

// Stats computes SiteStats from a finished analyzer.
func (a *SiteAnalyzer) Stats(site int) SiteStats {
	ivs := a.Finish()
	s := SiteStats{Site: site, Model: a.model, Observed: a.observed, Intervals: ivs}
	var up, mw, curt float64
	for _, iv := range ivs {
		l := float64(iv.Len())
		up += l
		mw += iv.AvgMW * l
		curt += iv.AvgCurtailedMW * l
	}
	if a.observed > 0 {
		s.DutyFactor = up / float64(a.observed)
	}
	if up > 0 {
		s.AvgDeliveredMW = mw / up
		s.AvgSPMW = curt / up
		s.AvgAvailableMW = (mw + curt) / up
	}
	return s
}

// Analysis runs all sites of a dataset against one model. Its sites
// share one flush scratch buffer, so an Analysis is not safe for
// concurrent use, not even on distinct sites; separate Analyses are
// independent.
type Analysis struct {
	model Model
	sites []*SiteAnalyzer
	spare []rec // flush scratch shared by sites (see SiteAnalyzer.spare)
}

// NewAnalysis creates per-site analyzers for nSites sites.
func NewAnalysis(model Model, nSites int) *Analysis {
	return NewAnalysisMin(model, nSites, 0)
}

// NewAnalysisMin creates per-site analyzers that require at least minMW
// of offered power for SP to count (see NewSiteAnalyzerMin).
func NewAnalysisMin(model Model, nSites int, minMW float64) *Analysis {
	a := &Analysis{model: model, sites: make([]*SiteAnalyzer, nSites)}
	for i := range a.sites {
		a.sites[i] = &SiteAnalyzer{model: model, minMW: minMW, spare: &a.spare}
	}
	return a
}

// Observe consumes one record.
func (a *Analysis) Observe(r miso.Record) {
	a.sites[r.Site].Observe(r.Interval, r.LMP, r.DeliveredMW, r.EconomicMaxMW)
}

// ObserveValues consumes one observation for an explicit site index —
// used when the caller aggregates several units into one node.
func (a *Analysis) ObserveValues(site int, interval int64, lmp, deliveredMW, economicMaxMW float64) {
	a.sites[site].Observe(interval, lmp, deliveredMW, economicMaxMW)
}

// Results returns per-site stats sorted by descending duty factor
// (ties: ascending site id), the order Figures 11 and 12 accumulate in.
func (a *Analysis) Results() []SiteStats {
	out := make([]SiteStats, len(a.sites))
	for i, sa := range a.sites {
		out[i] = sa.Stats(i)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].DutyFactor != out[j].DutyFactor {
			return out[i].DutyFactor > out[j].DutyFactor
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// DurationBucketsHours are the interval-duration histogram boundaries of
// Figure 10: <1 h, 1–6 h, 6–24 h, >24 h.
var DurationBucketsHours = []float64{1, 6, 24}

// DurationBreakdown returns, for a site's intervals, the fraction of SP
// intervals (by count, as Figure 10 plots) in each duration bucket.
func DurationBreakdown(ivs []Interval) []float64 {
	return durationFractions(ivs, func(Interval) float64 { return 1 })
}

// DurationTimeBreakdown returns the fraction of SP *time* in each
// Figure 10 duration bucket — the share of stranded hours that lives in
// long intervals, which is what matters to the scheduler.
func DurationTimeBreakdown(ivs []Interval) []float64 {
	return durationFractions(ivs, func(iv Interval) float64 { return iv.Hours() })
}

func durationFractions(ivs []Interval, weight func(Interval) float64) []float64 {
	sums := make([]float64, len(DurationBucketsHours)+1)
	var total float64
	for _, iv := range ivs {
		h := iv.Hours()
		b := sort.SearchFloat64s(DurationBucketsHours, h)
		if b < len(DurationBucketsHours) && DurationBucketsHours[b] == h {
			b++
		}
		w := weight(iv)
		sums[b] += w
		total += w
	}
	if total > 0 {
		for i := range sums {
			sums[i] /= total
		}
	}
	return sums
}

// CumulativeDutyFactor returns the union duty factor of the top-N sites
// (by individual duty factor) for N = 1..len(results): the fraction of
// observed time during which at least one of the N sites has SP (paper,
// Figure 11).
func CumulativeDutyFactor(results []SiteStats, observed int64) []float64 {
	out := make([]float64, len(results))
	covered := newIntervalSet()
	for i, st := range results {
		for _, iv := range st.Intervals {
			covered.add(iv.Start, iv.End)
		}
		if observed > 0 {
			out[i] = float64(covered.total()) / float64(observed)
		}
	}
	return out
}

// CumulativeAvgSPMW returns, for N = 1..len(results), the summed average
// stranded MW of the top-N sites (paper, Figure 12: total compute power a
// multi-site deployment could draw).
func CumulativeAvgSPMW(results []SiteStats) []float64 {
	out := make([]float64, len(results))
	sum := 0.0
	for i, st := range results {
		sum += st.AvgSPMW * st.DutyFactor // long-run average MW contribution
		out[i] = sum
	}
	return out
}

// Windows converts a site's SP intervals to availability windows in
// simulated seconds, for driving the ZCCloud partition (Section VI).
func Windows(ivs []Interval) []availability.Window {
	out := make([]availability.Window, 0, len(ivs))
	const step = miso.IntervalMinutes * 60 // seconds per market interval
	for _, iv := range ivs {
		out = append(out, availability.Window{
			Start: sim.Time(iv.Start * step),
			End:   sim.Time(iv.End * step),
		})
	}
	return out
}

// intervalSet accumulates a union of half-open int64 intervals.
type intervalSet struct {
	ivs []struct{ s, e int64 }
}

func newIntervalSet() *intervalSet { return &intervalSet{} }

func (s *intervalSet) add(start, end int64) {
	if end <= start {
		return
	}
	// binary search insertion point, then merge neighbors
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].s > start })
	// merge with predecessor if overlapping/adjacent
	if i > 0 && s.ivs[i-1].e >= start {
		i--
		if end <= s.ivs[i].e {
			return
		}
		start = s.ivs[i].s
	} else {
		s.ivs = append(s.ivs, struct{ s, e int64 }{})
		copy(s.ivs[i+1:], s.ivs[i:])
	}
	// extend over successors swallowed by [start, end)
	j := i + 1
	for j < len(s.ivs) && s.ivs[j].s <= end {
		if s.ivs[j].e > end {
			end = s.ivs[j].e
		}
		j++
	}
	s.ivs[i] = struct{ s, e int64 }{start, end}
	s.ivs = append(s.ivs[:i+1], s.ivs[j:]...)
}

func (s *intervalSet) total() int64 {
	var t int64
	for _, iv := range s.ivs {
		t += iv.e - iv.s
	}
	return t
}

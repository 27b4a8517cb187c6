package stranded

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"zccloud/internal/miso"
)

func TestModelString(t *testing.T) {
	if (Model{LMP, 0}).String() != "LMP0" {
		t.Error("LMP0 name wrong")
	}
	if (Model{NetPrice, 5}).String() != "NetPrice5" {
		t.Error("NetPrice5 name wrong")
	}
	if len(PaperModels) != 4 {
		t.Error("paper evaluates four models")
	}
}

// observeSeq feeds a price sequence with constant 10 MW delivered, 12 MW max.
func observeSeq(a *SiteAnalyzer, prices []float64) {
	for i, p := range prices {
		a.Observe(int64(i), p, 10, 12)
	}
}

func TestLMPModelBasic(t *testing.T) {
	a := NewSiteAnalyzer(Model{LMP, 0})
	observeSeq(a, []float64{5, -1, -2, 3, -4, 5, 5})
	ivs := a.Finish()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %+v, want 2", ivs)
	}
	if ivs[0].Start != 1 || ivs[0].End != 3 {
		t.Errorf("first = [%d,%d), want [1,3)", ivs[0].Start, ivs[0].End)
	}
	if ivs[1].Start != 4 || ivs[1].End != 5 {
		t.Errorf("second = [%d,%d), want [4,5)", ivs[1].Start, ivs[1].End)
	}
	if ivs[0].AvgMW != 10 || ivs[0].AvgCurtailedMW != 2 {
		t.Errorf("power accounting wrong: %+v", ivs[0])
	}
}

func TestLMPThreshold(t *testing.T) {
	a := NewSiteAnalyzer(Model{LMP, 5})
	observeSeq(a, []float64{4.9, 5.0, 5.1, 2})
	ivs := a.Finish()
	// LMP < 5 strictly: records 0 and 3
	if len(ivs) != 2 || ivs[0].Len() != 1 || ivs[1].Len() != 1 {
		t.Fatalf("intervals = %+v", ivs)
	}
}

func TestNetPriceExtendsThroughPositive(t *testing.T) {
	// Deep negatives let the run absorb short positive stretches: this is
	// the mechanism behind Figure 10's long NetPrice intervals.
	a := NewSiteAnalyzer(Model{NetPrice, 0})
	observeSeq(a, []float64{-30, -30, 10, 5, -30, -30})
	ivs := a.Finish()
	if len(ivs) != 1 {
		t.Fatalf("intervals = %+v, want one merged run", ivs)
	}
	if ivs[0].Len() != 6 {
		t.Errorf("run length = %d, want 6", ivs[0].Len())
	}
	if ivs[0].NetPrice >= 0 {
		t.Errorf("net price = %v, want negative", ivs[0].NetPrice)
	}
}

func TestNetPriceRejectsWhenAverageCrosses(t *testing.T) {
	a := NewSiteAnalyzer(Model{NetPrice, 0})
	observeSeq(a, []float64{-1, 50, -1})
	ivs := a.Finish()
	// the +50 forces the mean positive: run closes at [0,1), new run at [2,3)
	if len(ivs) != 2 || ivs[0].Len() != 1 || ivs[1].Len() != 1 {
		t.Fatalf("intervals = %+v", ivs)
	}
}

func TestNetPriceIntervalInvariant(t *testing.T) {
	// Property: every emitted NetPrice interval has power-weighted mean
	// price below threshold.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewSiteAnalyzer(Model{NetPrice, 0})
		for i := 0; i < 2000; i++ {
			lmp := -40 + 80*r.Float64()
			mw := 50 * r.Float64()
			a.Observe(int64(i), lmp, mw, mw*1.2)
		}
		for _, iv := range a.Finish() {
			if iv.NetPrice >= 0 {
				return false
			}
			if iv.End <= iv.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIntervalsDisjointSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, m := range PaperModels {
			a := NewSiteAnalyzer(m)
			for i := 0; i < 1500; i++ {
				a.Observe(int64(i), -30+60*r.Float64(), 20*r.Float64(), 25)
			}
			ivs := a.Finish()
			for k := 1; k < len(ivs); k++ {
				if ivs[k].Start < ivs[k-1].End {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMinPowerGuard(t *testing.T) {
	// Negative prices persist but power vanishes (solar at dusk): the run
	// must break at the zero-power record even though LMP stays negative.
	a := NewSiteAnalyzerMin(Model{NetPrice, 0}, 1)
	seq := []struct{ lmp, mw float64 }{
		{-20, 50}, {-20, 40}, {-20, 0}, {-20, 0}, {-20, 30},
	}
	for i, r := range seq {
		a.Observe(int64(i), r.lmp, r.mw, r.mw)
	}
	ivs := a.Finish()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %+v, want 2 (zero-power break)", ivs)
	}
	if ivs[0].End != 2 || ivs[1].Start != 4 {
		t.Errorf("boundaries wrong: %+v", ivs)
	}

	// Without the guard, the same sequence bridges (zero-weight records
	// do not move the power-weighted mean).
	b := NewSiteAnalyzer(Model{NetPrice, 0})
	for i, r := range seq {
		b.Observe(int64(i), r.lmp, r.mw, r.mw)
	}
	if got := b.Finish(); len(got) != 1 {
		t.Fatalf("unguarded analyzer should bridge: %+v", got)
	}
}

func TestGapClosesRun(t *testing.T) {
	a := NewSiteAnalyzer(Model{LMP, 0})
	a.Observe(0, -1, 10, 10)
	a.Observe(1, -1, 10, 10)
	a.Observe(5, -1, 10, 10) // data gap
	ivs := a.Finish()
	if len(ivs) != 2 {
		t.Fatalf("gap should split runs: %+v", ivs)
	}
}

func TestStatsDutyFactor(t *testing.T) {
	a := NewSiteAnalyzer(Model{LMP, 0})
	observeSeq(a, []float64{-1, -1, 5, 5, -1, 5, 5, 5, 5, 5}) // 3 of 10 stranded
	st := a.Stats(7)
	if st.Site != 7 || st.Observed != 10 {
		t.Errorf("stats header wrong: %+v", st)
	}
	if math.Abs(st.DutyFactor-0.3) > 1e-12 {
		t.Errorf("duty factor = %v, want 0.3", st.DutyFactor)
	}
	if st.AvgDeliveredMW != 10 {
		t.Errorf("avg delivered MW = %v, want 10", st.AvgDeliveredMW)
	}
	if st.AvgSPMW != 2 {
		t.Errorf("avg SP MW = %v, want 2 (curtailment)", st.AvgSPMW)
	}
	if st.AvgAvailableMW != 12 {
		t.Errorf("avg available MW = %v, want 12 (economic max)", st.AvgAvailableMW)
	}
}

func TestAnalysisOrdering(t *testing.T) {
	an := NewAnalysis(Model{LMP, 0}, 3)
	// site 0: never stranded; site 1: always; site 2: half
	for i := int64(0); i < 10; i++ {
		an.Observe(miso.Record{Interval: i, Site: 0, LMP: 10, DeliveredMW: 5, EconomicMaxMW: 5})
		an.Observe(miso.Record{Interval: i, Site: 1, LMP: -5, DeliveredMW: 5, EconomicMaxMW: 5})
		lmp := 10.0
		if i%2 == 0 {
			lmp = -5
		}
		an.Observe(miso.Record{Interval: i, Site: 2, LMP: lmp, DeliveredMW: 5, EconomicMaxMW: 5})
	}
	res := an.Results()
	if res[0].Site != 1 || res[1].Site != 2 || res[2].Site != 0 {
		t.Fatalf("ordering wrong: %v %v %v", res[0].Site, res[1].Site, res[2].Site)
	}
	if res[0].DutyFactor != 1 || res[2].DutyFactor != 0 {
		t.Errorf("duty factors wrong: %+v", res)
	}
}

func TestDurationBreakdown(t *testing.T) {
	// 0.5h (6 steps), 2h (24 steps), 48h (576 steps)
	ivs := []Interval{
		{Start: 0, End: 6},
		{Start: 100, End: 124},
		{Start: 1000, End: 1576},
	}
	// by count: one interval in each of <1h, 1-6h, >24h
	fr := DurationBreakdown(ivs)
	third := 1.0 / 3
	wantCount := []float64{third, third, 0, third}
	for i := range wantCount {
		if math.Abs(fr[i]-wantCount[i]) > 1e-12 {
			t.Errorf("count bucket %d = %v, want %v", i, fr[i], wantCount[i])
		}
	}
	// by time
	ft := DurationTimeBreakdown(ivs)
	total := 0.5 + 2 + 48
	wantTime := []float64{0.5 / total, 2 / total, 0, 48 / total}
	for i := range wantTime {
		if math.Abs(ft[i]-wantTime[i]) > 1e-12 {
			t.Errorf("time bucket %d = %v, want %v", i, ft[i], wantTime[i])
		}
	}
	if got := DurationBreakdown(nil); got[0] != 0 {
		t.Error("empty breakdown should be zeros")
	}
}

func TestCumulativeDutyFactor(t *testing.T) {
	results := []SiteStats{
		{Site: 0, Intervals: []Interval{{Start: 0, End: 50}}},
		{Site: 1, Intervals: []Interval{{Start: 25, End: 75}}},
		{Site: 2, Intervals: []Interval{{Start: 90, End: 100}}},
	}
	cum := CumulativeDutyFactor(results, 100)
	want := []float64{0.5, 0.75, 0.85}
	for i := range want {
		if math.Abs(cum[i]-want[i]) > 1e-12 {
			t.Errorf("cum[%d] = %v, want %v", i, cum[i], want[i])
		}
	}
}

// Property: cumulative duty factor is nondecreasing and bounded by 1, and
// by the sum of individual duty factors.
func TestCumulativeDutyFactorProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var results []SiteStats
		const observed = 1000
		for s := 0; s < 8; s++ {
			var ivs []Interval
			at := int64(0)
			for at < observed {
				at += int64(r.Intn(200))
				ln := int64(1 + r.Intn(100))
				if at >= observed {
					break
				}
				end := at + ln
				if end > observed {
					end = observed
				}
				ivs = append(ivs, Interval{Start: at, End: end})
				at = end + 1
			}
			st := SiteStats{Site: s, Intervals: ivs}
			var up int64
			for _, iv := range ivs {
				up += iv.Len()
			}
			st.DutyFactor = float64(up) / observed
			results = append(results, st)
		}
		cum := CumulativeDutyFactor(results, observed)
		sum := 0.0
		for i, st := range results {
			sum += st.DutyFactor
			if cum[i] > 1+1e-9 || cum[i] > sum+1e-9 {
				return false
			}
			if i > 0 && cum[i] < cum[i-1]-1e-12 {
				return false
			}
			if cum[i] < results[0].DutyFactor-1e-9 && i >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCumulativeAvgSPMW(t *testing.T) {
	results := []SiteStats{
		{DutyFactor: 0.5, AvgSPMW: 40},
		{DutyFactor: 0.25, AvgSPMW: 20},
	}
	cum := CumulativeAvgSPMW(results)
	if math.Abs(cum[0]-20) > 1e-12 || math.Abs(cum[1]-25) > 1e-12 {
		t.Errorf("cum = %v, want [20 25]", cum)
	}
}

func TestWindows(t *testing.T) {
	ws := Windows([]Interval{{Start: 12, End: 24}})
	if len(ws) != 1 {
		t.Fatal("want one window")
	}
	if ws[0].Start != 12*300 || ws[0].End != 24*300 {
		t.Errorf("window = %+v, want [3600, 7200)", ws[0])
	}
}

func TestIntervalSet(t *testing.T) {
	s := newIntervalSet()
	s.add(10, 20)
	s.add(30, 40)
	s.add(15, 35) // bridges both
	if s.total() != 30 {
		t.Errorf("total = %d, want 30", s.total())
	}
	s.add(0, 5)
	s.add(5, 10) // adjacent merges
	if s.total() != 40 {
		t.Errorf("total = %d, want 40", s.total())
	}
	s.add(12, 13) // contained: no change
	if s.total() != 40 {
		t.Errorf("total = %d after contained add", s.total())
	}
	s.add(7, 7) // empty: no-op
	if s.total() != 40 {
		t.Error("empty add changed set")
	}
}

// Property: intervalSet.total matches a brute-force boolean timeline.
func TestIntervalSetProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := newIntervalSet()
		line := make([]bool, 500)
		for i := 0; i < int(n)%40; i++ {
			a := int64(r.Intn(480))
			b := a + int64(r.Intn(60))
			if b > 500 {
				b = 500
			}
			s.add(a, b)
			for k := a; k < b; k++ {
				line[k] = true
			}
		}
		var want int64
		for _, v := range line {
			if v {
				want++
			}
		}
		return s.total() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// bridgeSeries returns a price/power series for one site that keeps
// NetPrice analyzers busy with long bridges: regimes of deep negative,
// mildly positive and high prices, each up to 400 intervals long, so
// pending tails overflow MaxBridgeSteps and get flushed and rescanned.
// About 2% of records offer less than 1 MW (below a 1 MW floor).
func bridgeSeries(r *rand.Rand, n int) (lmp, mw, maxMW []float64) {
	lmp, mw, maxMW = make([]float64, n), make([]float64, n), make([]float64, n)
	regime, left := 0, 0
	for i := 0; i < n; i++ {
		if left == 0 {
			regime, left = r.Intn(3), 1+r.Intn(400)
		}
		left--
		switch regime {
		case 0:
			lmp[i] = -40 + 35*r.Float64()
		case 1:
			lmp[i] = 0.5 + 9.5*r.Float64()
		default:
			lmp[i] = 30 + 50*r.Float64()
		}
		if r.Intn(20) == 0 {
			lmp[i] = -60 * r.Float64() // isolated dips re-open runs in rescans
		}
		mw[i] = 60 * r.Float64()
		maxMW[i] = mw[i] * 1.2
		if r.Intn(50) == 0 {
			mw[i], maxMW[i] = 0.2, 0.5
		}
	}
	return lmp, mw, maxMW
}

// TestSharedFlushScratch drives the sites of one NetPrice Analysis,
// interleaved interval by interval, through many bridge flushes with
// their shared flush scratch, and checks every site's intervals against
// a fresh analyzer that saw only that site: one site's flush must not
// corrupt another site's pending tail.
func TestSharedFlushScratch(t *testing.T) {
	const sites, n = 12, 6000
	r := rand.New(rand.NewSource(20))
	type series struct{ lmp, mw, maxMW []float64 }
	data := make([]series, sites)
	for s := range data {
		data[s].lmp, data[s].mw, data[s].maxMW = bridgeSeries(r, n)
	}
	for _, minMW := range []float64{0, 1} {
		for _, m := range []Model{{NetPrice, 0}, {NetPrice, 5}} {
			an := NewAnalysisMin(m, sites, minMW)
			for i := 0; i < n; i++ {
				for s, d := range data {
					an.ObserveValues(s, int64(i), d.lmp[i], d.mw[i], d.maxMW[i])
				}
			}
			if cap(an.spare) == 0 {
				t.Fatalf("%v min %v: no pending tail was ever flushed", m, minMW)
			}
			for s, d := range data {
				ref := NewSiteAnalyzerMin(m, minMW)
				for i := 0; i < n; i++ {
					ref.Observe(int64(i), d.lmp[i], d.mw[i], d.maxMW[i])
				}
				want := ref.Stats(s)
				if got := an.sites[s].Stats(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v min %v site %d: shared-scratch analysis gave %d intervals, fresh analyzer %d",
						m, minMW, s, len(got.Intervals), len(want.Intervals))
				}
			}
		}
	}
}

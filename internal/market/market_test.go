package market

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"zccloud/internal/powergrid"
)

// testNet builds a 3-bus chain: wind at bus 0 (negative offer), thermal at
// bus 2, load at buses 1 and 2. Line 0-1 capacity 100, line 1-2 capacity 50.
func testNet(t testing.TB) (*powergrid.Network, *Engine) {
	n := &powergrid.Network{
		Buses: []powergrid.Bus{{ID: 0}, {ID: 1}, {ID: 2}},
		Lines: []powergrid.Line{{A: 0, B: 1, CapacityMW: 100}, {A: 1, B: 2, CapacityMW: 50}},
		Gens: []powergrid.Generator{
			{ID: 0, Bus: 0, Type: powergrid.Wind, NameplateMW: 200, OfferPrice: -23},
			{ID: 1, Bus: 2, Type: powergrid.Thermal, NameplateMW: 500, OfferPrice: 30},
		},
		Loads: []powergrid.Load{{Bus: 1, BaseMW: 60}, {Bus: 2, BaseMW: 100}},
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, e
}

func TestMeritOrderDispatch(t *testing.T) {
	_, e := testNet(t)
	var res Result
	// wind offers 80 MW; load 60+100. Wind (cheapest) serves bus1's 60 and
	// pushes 20 over the 1-2 line; thermal covers the remaining 80 at bus2.
	if err := e.Run([]float64{0, 60, 100}, []float64{80, 500}, &res); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GenOutputMW[0]-80) > 1e-6 {
		t.Errorf("wind output = %v, want 80 (fully dispatched)", res.GenOutputMW[0])
	}
	if math.Abs(res.GenOutputMW[1]-80) > 1e-6 {
		t.Errorf("thermal output = %v, want 80", res.GenOutputMW[1])
	}
	if res.UnservedMW > 1e-6 {
		t.Errorf("unserved = %v", res.UnservedMW)
	}
	// no wind spare: LMP everywhere is the thermal margin
	for b, lmp := range res.LMP {
		if math.Abs(lmp-30) > 1e-6 {
			t.Errorf("bus %d LMP = %v, want 30", b, lmp)
		}
	}
}

func TestCurtailmentNegativeLMP(t *testing.T) {
	_, e := testNet(t)
	var res Result
	// Wind offers 200 MW but bus1 load is 30 and the export line to bus2
	// carries only 50: wind delivers 80, curtails 120. Spare wind makes
	// LMP at buses 0 and 1 negative; bus 2 sees... the 1-2 line has spare
	// only if flow < 50.
	if err := e.Run([]float64{0, 30, 100}, []float64{200, 500}, &res); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GenOutputMW[0]-80) > 1e-6 {
		t.Errorf("wind output = %v, want 80 (30 local + 50 export)", res.GenOutputMW[0])
	}
	if c := res.Curtailed(0); math.Abs(c-120) > 1e-6 {
		t.Errorf("curtailed = %v, want 120", c)
	}
	if res.LMP[0] != -23 || res.LMP[1] != -23 {
		t.Errorf("LMP[0,1] = %v,%v, want -23 (trapped wind)", res.LMP[0], res.LMP[1])
	}
	// line 1-2 saturated at 50 → bus 2 cannot see the wind; thermal sets it
	if res.LMP[2] != 30 {
		t.Errorf("LMP[2] = %v, want 30 (behind congested line)", res.LMP[2])
	}
	// flows respect limits
	for i, f := range res.FlowMW {
		if math.Abs(f) > 100+1e-6 {
			t.Errorf("line %d flow %v exceeds capacity", i, f)
		}
	}
}

func TestSystemOversupplyNegativeEverywhere(t *testing.T) {
	_, e := testNet(t)
	var res Result
	// Tiny load, huge wind: even after congestion there is spare wind and
	// spare thermal... thermal spare sets a floor only where wind can't
	// reach. With load 10 at bus 1: wind serves it, wind spare remains →
	// buses 0,1 negative. Bus 2: line 1-2 carries 0 < 50, so wind spare
	// reaches bus 2 too.
	if err := e.Run([]float64{0, 10, 0}, []float64{200, 500}, &res); err != nil {
		t.Fatal(err)
	}
	for b, lmp := range res.LMP {
		if lmp != -23 {
			t.Errorf("bus %d LMP = %v, want -23 (system oversupply)", b, lmp)
		}
	}
}

func TestScarcityVOLL(t *testing.T) {
	_, e := testNet(t)
	var res Result
	// Demand beyond all generation: unserved load and VOLL pricing.
	if err := e.Run([]float64{800, 800, 800}, []float64{200, 500}, &res); err != nil {
		t.Fatal(err)
	}
	if res.UnservedMW <= 0 {
		t.Error("expected shortage")
	}
	// every bus should be at VOLL (no spare anywhere)
	for b, lmp := range res.LMP {
		if lmp != VOLL {
			t.Errorf("bus %d LMP = %v, want VOLL", b, lmp)
		}
	}
}

func TestRunValidation(t *testing.T) {
	_, e := testNet(t)
	var res Result
	if err := e.Run([]float64{1}, []float64{1, 1}, &res); err == nil {
		t.Error("wrong loadMW length should fail")
	}
	if err := e.Run([]float64{1, 1, 1}, []float64{1}, &res); err == nil {
		t.Error("wrong genMaxMW length should fail")
	}
	// Dispatch prunes on remaining load > 0, so every input must be a
	// finite quantity >= 0 (a negative load would raise a push's budget).
	for _, bad := range []float64{-1, -1e-12, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := e.Run([]float64{0, bad, 100}, []float64{80, 500}, &res); err == nil {
			t.Errorf("loadMW entry %v should fail", bad)
		}
		if err := e.Run([]float64{0, 60, 100}, []float64{80, bad}, &res); err == nil {
			t.Errorf("genMaxMW entry %v should fail", bad)
		}
	}
	// -0 is a zero, not a negative.
	if err := e.Run([]float64{math.Copysign(0, -1), 60, 100}, []float64{80, math.Copysign(0, -1)}, &res); err != nil {
		t.Errorf("negative zero refused: %v", err)
	}
}

func TestResultReuseNoLeak(t *testing.T) {
	_, e := testNet(t)
	var res Result
	if err := e.Run([]float64{0, 30, 100}, []float64{200, 500}, &res); err != nil {
		t.Fatal(err)
	}
	first := res.GenOutputMW[0]
	// second run with different inputs must not be contaminated
	if err := e.Run([]float64{0, 0, 0}, []float64{200, 500}, &res); err != nil {
		t.Fatal(err)
	}
	if res.GenOutputMW[0] != 0 {
		t.Errorf("stale output %v after reuse (first %v)", res.GenOutputMW[0], first)
	}
	for i, f := range res.FlowMW {
		if f != 0 {
			t.Errorf("stale flow %v on line %d", f, i)
		}
	}
}

// Property: conservation and limits on the default network under random
// wind and load levels.
func TestDispatchInvariants(t *testing.T) {
	net, err := powergrid.BuildDefault(powergrid.DefaultConfig{WindSites: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net)
	if err != nil {
		t.Fatal(err)
	}
	minOffer := 0.0
	for _, g := range net.Gens {
		if g.OfferPrice < minOffer {
			minOffer = g.OfferPrice
		}
	}
	var res Result
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loads := make([]float64, len(net.Buses))
		for _, l := range net.Loads {
			loads[l.Bus] += l.BaseMW * (0.3 + 1.2*r.Float64())
		}
		gmax := make([]float64, len(net.Gens))
		for i, g := range net.Gens {
			if g.Type == powergrid.Wind {
				gmax[i] = g.NameplateMW * r.Float64()
			} else {
				gmax[i] = g.NameplateMW
			}
		}
		if err := eng.Run(loads, gmax, &res); err != nil {
			return false
		}
		var gen, load float64
		for i, o := range res.GenOutputMW {
			if o < -1e-9 || o > gmax[i]+1e-9 {
				return false // output outside [0, max]
			}
			gen += o
		}
		for _, l := range loads {
			load += l
		}
		// conservation: generation = served load = load - unserved
		if math.Abs(gen-(load-res.UnservedMW)) > 1e-6*math.Max(1, load) {
			return false
		}
		// line limits (relative tolerance: flows are tens of GW)
		for i, f := range res.FlowMW {
			capMW := net.Lines[i].CapacityMW
			if math.Abs(f) > capMW+1e-9*capMW+1e-6 {
				return false
			}
		}
		// LMP sanity: between the cheapest offer and VOLL
		for _, lmp := range res.LMP {
			if lmp < minOffer-1e-9 || lmp > VOLL+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLoadShape(t *testing.T) {
	// evening above overnight
	evening := LoadShape(17.5)
	night := LoadShape(4)
	if evening <= night {
		t.Errorf("load shape: evening %v <= night %v", evening, night)
	}
	// weekend below weekday at the same hour
	wd := LoadShape(2*24 + 12) // Wednesday noon
	we := LoadShape(5*24 + 12) // Saturday noon
	if we >= wd {
		t.Errorf("weekend %v >= weekday %v", we, wd)
	}
	// all positive over two weeks
	for h := 0.0; h < 14*24; h += 0.25 {
		if LoadShape(h) <= 0.3 {
			t.Fatalf("implausible load multiplier %v at %v", LoadShape(h), h)
		}
	}
}

func TestEngineEmptyNetwork(t *testing.T) {
	if _, err := NewEngine(&powergrid.Network{}); err == nil {
		t.Error("empty network should fail")
	}
}

func BenchmarkDispatchDefault(b *testing.B) {
	net, err := powergrid.BuildDefault(powergrid.DefaultConfig{WindSites: 200, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(net)
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]float64, len(net.Buses))
	for _, l := range net.Loads {
		loads[l.Bus] += l.BaseMW
	}
	gmax := make([]float64, len(net.Gens))
	for i, g := range net.Gens {
		gmax[i] = g.NameplateMW * 0.4
	}
	var res Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Run(loads, gmax, &res); err != nil {
			b.Fatal(err)
		}
	}
}

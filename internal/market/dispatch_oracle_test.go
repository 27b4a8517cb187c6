package market

// Oracle test for subtree-pruned dispatch: on random trees and on the
// MISO- and CAISO-like networks, Run must give bit-identical outputs,
// flows, prices and shortage to the unpruned DFS it replaced, which is
// kept here as fullSearchRun.

import (
	"math"
	"math/rand"
	"testing"

	"zccloud/internal/powergrid"
)

// fullSearchRun clears one interval the way Run did before pruning: each
// push walks every bus it can reach over residual capacity, served or
// not. Prices come from the engine's own computeLMP over the reference
// outputs and flows.
func fullSearchRun(e *Engine, loadMW, genMaxMW []float64, res *Result) {
	n := e.net
	e.prepare(res)
	copy(res.LoadMW, loadMW)
	copy(res.GenMaxMW, genMaxMW)
	remaining := append([]float64(nil), loadMW...)
	residual := func(line int, fromBus powergrid.BusID) float64 {
		l := n.Lines[line]
		if fromBus == l.A {
			return l.CapacityMW - res.FlowMW[line]
		}
		return l.CapacityMW + res.FlowMW[line]
	}
	var push func(bus, from powergrid.BusID, budget float64) float64
	push = func(bus, from powergrid.BusID, budget float64) float64 {
		used := min(budget, remaining[bus])
		remaining[bus] -= used
		budget -= used
		total := used
		if budget <= eps {
			return total
		}
		for _, a := range n.Adjacency(bus) {
			if a.To == from {
				continue
			}
			r := residual(a.Line, bus)
			if r <= eps {
				continue
			}
			got := push(a.To, bus, min(budget, r))
			if got > 0 {
				if n.Lines[a.Line].A == bus {
					res.FlowMW[a.Line] += got
				} else {
					res.FlowMW[a.Line] -= got
				}
				budget -= got
				total += got
				if budget <= eps {
					break
				}
			}
		}
		return total
	}
	for _, g := range e.order {
		avail := genMaxMW[g]
		if avail <= eps {
			res.GenOutputMW[g] = 0
			continue
		}
		res.GenOutputMW[g] = push(n.Gens[g].Bus, -1, avail)
	}
	for _, rem := range remaining {
		res.UnservedMW += rem
	}
	e.computeLMP(res)
}

// checkSameDispatch runs both dispatches on one interval and fails on the
// first bit that differs. It also checks that pos, the pruning's count of
// buses with unserved load, matches a recount after Run: a stale count
// that only over-reports would still give the same result, but it would
// prune nothing.
func checkSameDispatch(t *testing.T, what string, e *Engine, loads, gmax []float64, got, want *Result) {
	t.Helper()
	if err := e.Run(loads, gmax, got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	fullSearchRun(e, loads, gmax, want)
	same := func(field string, a, b []float64) {
		t.Helper()
		for i := range b {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, full search %v", what, field, i, a[i], b[i])
			}
		}
	}
	same("GenOutputMW", got.GenOutputMW, want.GenOutputMW)
	same("FlowMW", got.FlowMW, want.FlowMW)
	same("LMP", got.LMP, want.LMP)
	same("UnservedMW", []float64{got.UnservedMW}, []float64{want.UnservedMW})

	count := make([]int32, len(e.pos))
	for i := len(e.bfsOrder) - 1; i >= 0; i-- {
		v := e.bfsOrder[i]
		if e.remaining[v] > 0 {
			count[v]++
		}
		if p := e.parent[v]; p >= 0 {
			count[p] += count[v]
		}
	}
	for v := range count {
		if e.pos[v] != count[v] {
			t.Fatalf("%s: pos[%d] = %d after Run, %d buses unserved in its subtree", what, v, e.pos[v], count[v])
		}
	}
}

// randomAmount draws a load or offer that is often exactly 0 or below
// eps, so the pruning sees buses that start served and buses whose tiny
// load a push clears.
func randomAmount(r *rand.Rand, scale float64) float64 {
	switch r.Intn(5) {
	case 0:
		return 0
	case 1:
		return eps * r.Float64()
	default:
		return scale * r.Float64()
	}
}

func TestDispatchMatchesFullSearch(t *testing.T) {
	var got, want Result
	t.Run("random trees", func(t *testing.T) {
		r := rand.New(rand.NewSource(26))
		for trial := 0; trial < 400; trial++ {
			n := randomTree(r, 2+r.Intn(30))
			e, err := NewEngine(n)
			if err != nil {
				t.Fatal(err)
			}
			loads := make([]float64, len(n.Buses))
			gmax := make([]float64, len(n.Gens))
			// Several intervals per engine: pos is rebuilt by every Run.
			for k := 0; k < 4; k++ {
				for b := range loads {
					loads[b] = randomAmount(r, 60)
				}
				for g := range gmax {
					gmax[g] = randomAmount(r, 80)
				}
				checkSameDispatch(t, "random tree", e, loads, gmax, &got, &want)
			}
		}
	})
	grids := []struct {
		name  string
		build func() (*powergrid.Network, error)
	}{
		{"default", func() (*powergrid.Network, error) {
			return powergrid.BuildDefault(powergrid.DefaultConfig{WindSites: 200, Seed: 1})
		}},
		{"default 20 sites", func() (*powergrid.Network, error) {
			return powergrid.BuildDefault(powergrid.DefaultConfig{WindSites: 20, Seed: 7})
		}},
		{"caiso", func() (*powergrid.Network, error) {
			return powergrid.BuildCAISO(powergrid.CAISOConfig{Sites: 120, Seed: 2})
		}},
	}
	for _, grid := range grids {
		t.Run(grid.name, func(t *testing.T) {
			n, err := grid.build()
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(n)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(len(n.Gens))))
			base := make([]float64, len(n.Buses))
			for _, l := range n.Loads {
				base[l.Bus] += l.BaseMW
			}
			loads := make([]float64, len(n.Buses))
			gmax := make([]float64, len(n.Gens))
			cf := make([]float64, len(n.Gens))
			for i := range cf {
				cf[i] = r.Float64()
			}
			// 300 five-minute intervals with shaped load, drifting
			// renewable output and an occasional tight or scarce hour.
			for k := 0; k < 300; k++ {
				hrs := float64(k) / 12
				level := LoadShape(hrs) * (0.6 + 0.8*r.Float64())
				for b := range loads {
					loads[b] = base[b] * level
				}
				for i, g := range n.Gens {
					if !g.Type.Renewable() {
						gmax[i] = g.NameplateMW
						if r.Intn(10) == 0 {
							gmax[i] = 0 // outage
						}
						continue
					}
					cf[i] = math.Min(1, math.Max(0, cf[i]+0.2*(r.Float64()-0.5)))
					gmax[i] = g.NameplateMW * cf[i]
				}
				checkSameDispatch(t, grid.name, e, loads, gmax, &got, &want)
			}
		})
	}
}

// Package market implements a 5-minute real-time energy market over a
// radial power grid: merit-order economic dispatch with transmission
// limits, and locational marginal prices (LMPs).
//
// Dispatch is a transport problem on the network tree: offers are taken
// in price order, and each unit's output flows toward unserved load along
// residual line capacity. The search enters only subtrees that still hold
// unserved load: a push into a region whose load is all served delivers
// exactly 0 and changes no flow, so skipping it leaves every output, flow
// and price bit-identical. The LMP at a bus is the offer price of the
// cheapest unit with spare capacity that can still reach the bus through
// non-congested lines — so a bus behind a saturated export line next to
// curtailed wind sees the wind's negative offer, while import-constrained
// load pockets see peaker prices. These are exactly the mechanisms that
// create MISO's negative-price intervals ("economic curtailment"), the
// raw material of the ZCCloud study.
package market

import (
	"fmt"
	"math"
	"sort"

	"zccloud/internal/powergrid"
)

// VOLL is the scarcity price assigned when no spare generation can reach
// a bus (MISO's value of lost load is $3,500/MWh).
const VOLL = 3500.0

const eps = 1e-9

// Result holds one interval's dispatch outcome. Reuse a Result across
// calls to avoid allocation in long simulations.
type Result struct {
	GenOutputMW []float64 // delivered, per generator
	GenMaxMW    []float64 // offered maximum ("economic max"), per generator
	LMP         []float64 // $/MWh per bus
	FlowMW      []float64 // signed A→B flow per line
	LoadMW      []float64 // demand per bus
	UnservedMW  float64   // shortage across the system
}

// Curtailed returns generator g's undispatched offer (economic max minus
// output).
func (r *Result) Curtailed(g int) float64 { return r.GenMaxMW[g] - r.GenOutputMW[g] }

// Engine dispatches a fixed network. It owns scratch buffers, so an
// Engine is not safe for concurrent use; create one per goroutine.
type Engine struct {
	net   *powergrid.Network
	order []int // generator indices sorted by (offer, id)

	// rooted-tree structure for LMP propagation
	parent     []powergrid.BusID
	parentLine []int
	bfsOrder   []powergrid.BusID

	// scratch
	remaining []float64
	// pos[v] counts the buses in v's subtree (rooted at bus 0) whose
	// remaining load is > 0; pos[0] is the whole network's count.
	pos   []int32
	local []float64
	down  []float64
	up    []float64
	cur   *Result // active result during Run
}

// NewEngine prepares dispatch for a finalized network.
func NewEngine(net *powergrid.Network) (*Engine, error) {
	nb := len(net.Buses)
	if nb == 0 {
		return nil, fmt.Errorf("market: empty network")
	}
	e := &Engine{
		net:        net,
		parent:     make([]powergrid.BusID, nb),
		parentLine: make([]int, nb),
		remaining:  make([]float64, nb),
		pos:        make([]int32, nb),
		local:      make([]float64, nb),
		down:       make([]float64, nb),
		up:         make([]float64, nb),
	}
	e.order = make([]int, len(net.Gens))
	for i := range e.order {
		e.order[i] = i
	}
	sort.SliceStable(e.order, func(a, b int) bool {
		ga, gb := net.Gens[e.order[a]], net.Gens[e.order[b]]
		if ga.OfferPrice != gb.OfferPrice {
			return ga.OfferPrice < gb.OfferPrice
		}
		return ga.ID < gb.ID
	})
	// BFS from bus 0 to build the rooted tree used by LMP propagation.
	for i := range e.parent {
		e.parent[i] = -1
		e.parentLine[i] = -1
	}
	e.bfsOrder = append(e.bfsOrder, 0)
	seen := make([]bool, nb)
	seen[0] = true
	for head := 0; head < len(e.bfsOrder); head++ {
		v := e.bfsOrder[head]
		net.Neighbors(v, func(to powergrid.BusID, line int) {
			if !seen[to] {
				seen[to] = true
				e.parent[to] = v
				e.parentLine[to] = line
				e.bfsOrder = append(e.bfsOrder, to)
			}
		})
	}
	if len(e.bfsOrder) != nb {
		return nil, fmt.Errorf("market: network not finalized or not connected")
	}
	return e, nil
}

// prepare sizes a Result for this network.
func (e *Engine) prepare(r *Result) {
	nb, ng, nl := len(e.net.Buses), len(e.net.Gens), len(e.net.Lines)
	if cap(r.GenOutputMW) < ng {
		r.GenOutputMW = make([]float64, ng)
		r.GenMaxMW = make([]float64, ng)
	}
	r.GenOutputMW = r.GenOutputMW[:ng]
	r.GenMaxMW = r.GenMaxMW[:ng]
	if cap(r.LMP) < nb {
		r.LMP = make([]float64, nb)
		r.LoadMW = make([]float64, nb)
	}
	r.LMP = r.LMP[:nb]
	r.LoadMW = r.LoadMW[:nb]
	if cap(r.FlowMW) < nl {
		r.FlowMW = make([]float64, nl)
	}
	r.FlowMW = r.FlowMW[:nl]
	for i := range r.FlowMW {
		r.FlowMW[i] = 0
	}
	r.UnservedMW = 0
}

// Run clears one interval. loadMW is demand per bus; genMaxMW is each
// generator's offered maximum this interval (capacity factor × nameplate
// for wind, nameplate for thermal). Every entry must be finite and >= 0.
// The outcome is written into res.
func (e *Engine) Run(loadMW []float64, genMaxMW []float64, res *Result) error {
	nb, ng := len(e.net.Buses), len(e.net.Gens)
	if len(loadMW) != nb {
		return fmt.Errorf("market: loadMW has %d entries, want %d", len(loadMW), nb)
	}
	if len(genMaxMW) != ng {
		return fmt.Errorf("market: genMaxMW has %d entries, want %d", len(genMaxMW), ng)
	}
	for b, v := range loadMW {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("market: loadMW[%d] = %v, want finite and >= 0", b, v)
		}
	}
	for g, v := range genMaxMW {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("market: genMaxMW[%d] = %v, want finite and >= 0", g, v)
		}
	}
	e.prepare(res)
	e.cur = res
	defer func() { e.cur = nil }()
	copy(res.LoadMW, loadMW)
	copy(res.GenMaxMW, genMaxMW)
	copy(e.remaining, loadMW)
	clear(e.pos)
	for i := len(e.bfsOrder) - 1; i >= 0; i-- {
		v := e.bfsOrder[i]
		if e.remaining[v] > 0 {
			e.pos[v]++
		}
		if p := e.parent[v]; p >= 0 {
			e.pos[p] += e.pos[v]
		}
	}

	// Merit-order dispatch with tree transport.
	for _, g := range e.order {
		avail := genMaxMW[g]
		if avail <= eps || e.pos[0] == 0 {
			res.GenOutputMW[g] = 0
			continue
		}
		res.GenOutputMW[g] = e.push(e.net.Gens[g].Bus, -1, avail, res)
	}
	for _, rem := range e.remaining {
		res.UnservedMW += rem
	}

	e.computeLMP(res)
	return nil
}

// push sends up to budget MW from bus toward unserved load, via DFS over
// residual line capacity. from is the bus we arrived from (-1 at the
// source). Returns MW actually delivered.
//
// The DFS enters a child only if pos says its subtree still holds
// unserved load, and the parent only if some bus outside bus's subtree
// does. A push into a fully served region would deliver exactly 0 and
// add no flow, so the skipped calls change nothing. When bus's load
// reaches exactly 0, pos is decremented on the path to the root.
func (e *Engine) push(bus, from powergrid.BusID, budget float64, res *Result) float64 {
	used := min(budget, e.remaining[bus])
	e.remaining[bus] -= used
	if used > 0 && e.remaining[bus] == 0 {
		for v := bus; v >= 0; v = e.parent[v] {
			e.pos[v]--
		}
	}
	budget -= used
	total := used
	if budget <= eps {
		return total
	}
	up := e.parent[bus]
	for _, a := range e.net.Adjacency(bus) {
		if a.To == from {
			continue
		}
		if a.To == up {
			if e.pos[0] == e.pos[bus] {
				continue // nothing unserved outside bus's subtree
			}
		} else if e.pos[a.To] == 0 {
			continue // a.To's subtree is fully served
		}
		r := e.residual(a.Line, bus)
		if r <= eps {
			continue
		}
		send := min(budget, r)
		got := e.push(a.To, bus, send, res)
		if got > 0 {
			e.addFlow(a.Line, bus, got, res)
			budget -= got
			total += got
			if budget <= eps {
				break
			}
		}
	}
	return total
}

// residual returns the spare capacity of line in the direction away from
// bus fromBus.
func (e *Engine) residual(line int, fromBus powergrid.BusID) float64 {
	l := e.net.Lines[line]
	if fromBus == l.A {
		return l.CapacityMW - e.cur.FlowMW[line]
	}
	return l.CapacityMW + e.cur.FlowMW[line]
}

// addFlow records f MW moving across line away from fromBus.
func (e *Engine) addFlow(line int, fromBus powergrid.BusID, f float64, res *Result) {
	if e.net.Lines[line].A == fromBus {
		res.FlowMW[line] += f
	} else {
		res.FlowMW[line] -= f
	}
}

// computeLMP fills res.LMP: for every bus, the cheapest spare offer
// reachable through residual capacity; VOLL if none.
func (e *Engine) computeLMP(res *Result) {
	nb := len(e.net.Buses)
	inf := math.Inf(1)
	for v := 0; v < nb; v++ {
		e.local[v] = inf
	}
	for g, gen := range e.net.Gens {
		if res.GenMaxMW[g]-res.GenOutputMW[g] > eps {
			if gen.OfferPrice < e.local[gen.Bus] {
				e.local[gen.Bus] = gen.OfferPrice
			}
		}
	}
	resid := func(line int, toward powergrid.BusID) float64 {
		l := e.net.Lines[line]
		if toward == l.B { // capacity left in direction A→B
			return l.CapacityMW - res.FlowMW[line]
		}
		return l.CapacityMW + res.FlowMW[line]
	}
	// down[v]: cheapest spare offer in v's subtree reachable at v.
	copy(e.down, e.local)
	for i := len(e.bfsOrder) - 1; i >= 1; i-- {
		c := e.bfsOrder[i]
		p := e.parent[c]
		if resid(e.parentLine[c], p) > eps && e.down[c] < e.down[p] {
			e.down[p] = e.down[c]
		}
	}
	// up[v]: cheapest spare offer outside v's subtree reachable at v.
	e.up[0] = inf
	for _, v := range e.bfsOrder {
		// best and second-best child contributions of v
		best, second := inf, inf
		var bestChild powergrid.BusID = -1
		for _, a := range e.net.Adjacency(v) {
			c := a.To
			if c == e.parent[v] {
				continue
			}
			if resid(a.Line, v) <= eps {
				continue
			}
			if e.down[c] < best {
				second = best
				best = e.down[c]
				bestChild = c
			} else if e.down[c] < second {
				second = e.down[c]
			}
		}
		base := min(e.up[v], e.local[v])
		for _, a := range e.net.Adjacency(v) {
			c := a.To
			if c == e.parent[v] {
				continue
			}
			cand := base
			sib := best
			if c == bestChild {
				sib = second
			}
			if sib < cand {
				cand = sib
			}
			if resid(a.Line, c) > eps {
				e.up[c] = cand
			} else {
				e.up[c] = inf
			}
		}
	}
	for v := 0; v < nb; v++ {
		lmp := min(e.down[v], e.up[v])
		if math.IsInf(lmp, 1) {
			lmp = VOLL
		}
		res.LMP[v] = lmp
	}
}

// LoadShape returns the demand multiplier at a given hour from the
// dataset start (taken as midnight January 1): diurnal evening peak,
// weekday/weekend cycle, and a summer-peaking season.
func LoadShape(hrs float64) float64 {
	hod := math.Mod(hrs, 24)
	diurnal := 1 + 0.20*math.Cos(2*math.Pi*(hod-17.5)/24)
	dow := int(hrs/24) % 7
	weekly := 1.03
	if dow >= 5 {
		weekly = 0.92
	}
	doy := math.Mod(hrs/24, 365)
	seasonal := 1 + 0.10*math.Cos(2*math.Pi*(doy-200)/365)
	return diurnal * weekly * seasonal
}

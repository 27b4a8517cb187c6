// Package faults is the simulator's fault-injection layer: it perturbs
// the clean availability model the rest of the stack assumes with the
// failure modes a real stranded-power deployment exhibits.
//
// Three fault dimensions are modeled, each independently optional:
//
//   - stochastic node failures: per-partition renewal processes with
//     exponential or Weibull inter-failure times (cheap ZCCloud nodes
//     fail more often than the stable Mira base) and exponential repair
//     times, taking a few nodes out of service per event;
//   - availability perturbation: forecast error that moves the real end
//     of a stranded-power window early or late relative to what the
//     scheduler believes, and brownouts where a fraction of the
//     partition's capacity survives a window end instead of all power
//     vanishing at once;
//   - recovery policy: what happens to a killed job — requeue to the
//     front or the back of the wait queue, exponential backoff between
//     retries, and a bounded retry budget after which the job is
//     abandoned (a terminal state).
//
// All draws come from RNG streams derived from a single seed, with one
// independent stream per (partition, purpose) pair, so enabling one
// fault dimension never shifts another's draws and same-seed runs are
// byte-identical. The scheduler consumes the layer through an Injector;
// a nil Injector (or a Config with everything zero) is the clean
// no-fault simulator.
package faults

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"zccloud/internal/availability"
	"zccloud/internal/sim"
)

// RequeuePolicy selects where a killed job re-enters the wait queue.
type RequeuePolicy int

// Requeue policies.
const (
	// RequeueFront keeps the killed job's original submit-order position,
	// so it restarts ahead of everything submitted after it (the seed
	// simulator's behavior).
	RequeueFront RequeuePolicy = iota
	// RequeueBack reinserts the killed job behind every job already
	// queued at kill time, as if it had been freshly submitted.
	RequeueBack
)

func (p RequeuePolicy) String() string {
	if p == RequeueBack {
		return "back"
	}
	return "front"
}

// DefaultMeanRepair is the repair time used when a NodeFailures entry
// leaves it zero.
const DefaultMeanRepair = 30 * sim.Minute

// NodeFailures configures the stochastic node-failure process of one
// partition.
type NodeFailures struct {
	// MTBF is the mean time between failure events on the partition.
	// Zero disables node failures for the partition.
	MTBF sim.Duration
	// WeibullShape selects the inter-failure distribution: values other
	// than 0 and 1 draw Weibull(shape, scale) with the scale chosen so
	// the mean equals MTBF (shape < 1 models the infant-mortality burst
	// of cheap recycled nodes); 0 or 1 draws exponential.
	WeibullShape float64
	// MeanRepair is the mean of the exponential repair time; zero means
	// DefaultMeanRepair.
	MeanRepair sim.Duration
	// NodesPerFailure is how many nodes one failure event takes down;
	// zero means 1.
	NodesPerFailure int
}

func (n NodeFailures) withDefaults() NodeFailures {
	if n.MeanRepair <= 0 {
		n.MeanRepair = DefaultMeanRepair
	}
	if n.NodesPerFailure <= 0 {
		n.NodesPerFailure = 1
	}
	return n
}

// Config describes the full fault model of a run. The zero value
// injects nothing.
type Config struct {
	// Seed drives every random draw of the layer. Runs with equal seeds
	// and configs produce identical fault schedules.
	Seed int64
	// Nodes maps partition name to its node-failure process. Partitions
	// absent from the map never lose individual nodes.
	Nodes map[string]NodeFailures
	// ForecastErrSD is the standard deviation of the zero-mean Gaussian
	// error between a window's believed end and its actual end. The
	// scheduler keeps believing the clean model; the partition's power
	// really ends at the perturbed time. Zero disables.
	ForecastErrSD sim.Duration
	// BrownoutProb is the probability that a window ends in a brownout —
	// a fraction of capacity survives into the down period instead of
	// all power vanishing. Zero disables.
	BrownoutProb float64
	// BrownoutCapacity is the fraction of partition nodes that survive a
	// brownout; zero means 0.5.
	BrownoutCapacity float64
	// Policy is the requeue discipline for killed jobs.
	Policy RequeuePolicy
	// RetryLimit bounds how many times a job may be killed before it is
	// abandoned (terminal). Zero means unlimited retries.
	RetryLimit int
	// Backoff is the base of the exponential backoff a killed job waits
	// before re-entering the queue: the k-th kill delays requeue by
	// Backoff × 2^(k−1). Zero requeues immediately.
	Backoff sim.Duration
	// BackoffJitter selects full-jitter backoff: the k-th kill delays
	// requeue by a uniform draw from (0, Backoff × 2^(k−1)] instead of
	// the deterministic maximum, decorrelating the retry storms that
	// follow a window end. Each delay is a pure function of (Seed, job,
	// kill count) — drawn from its own RNG stream — so same-seed runs
	// stay byte-identical and snapshot/resume replays the same delays.
	// False (the default) keeps the exact pre-jitter schedule.
	BackoffJitter bool
}

func (c Config) withDefaults() Config {
	if c.BrownoutCapacity <= 0 {
		c.BrownoutCapacity = 0.5
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ForecastErrSD < 0:
		return fmt.Errorf("faults: forecast error SD %v < 0", c.ForecastErrSD)
	case c.BrownoutProb < 0 || c.BrownoutProb > 1:
		return fmt.Errorf("faults: brownout probability %v outside [0,1]", c.BrownoutProb)
	case c.BrownoutCapacity < 0 || c.BrownoutCapacity >= 1:
		return fmt.Errorf("faults: brownout capacity %v outside [0,1)", c.BrownoutCapacity)
	case c.RetryLimit < 0:
		return fmt.Errorf("faults: retry limit %d < 0", c.RetryLimit)
	case c.Backoff < 0:
		return fmt.Errorf("faults: backoff %v < 0", c.Backoff)
	case c.Policy != RequeueFront && c.Policy != RequeueBack:
		return fmt.Errorf("faults: unknown requeue policy %d", int(c.Policy))
	}
	for name, nf := range c.Nodes {
		switch {
		case nf.MTBF < 0:
			return fmt.Errorf("faults: partition %q MTBF %v < 0", name, nf.MTBF)
		case nf.WeibullShape < 0:
			return fmt.Errorf("faults: partition %q Weibull shape %v < 0", name, nf.WeibullShape)
		case nf.MeanRepair < 0:
			return fmt.Errorf("faults: partition %q mean repair %v < 0", name, nf.MeanRepair)
		case nf.NodesPerFailure < 0:
			return fmt.Errorf("faults: partition %q nodes per failure %d < 0", name, nf.NodesPerFailure)
		}
	}
	return nil
}

// Enabled reports whether any fault dimension is active.
func (c Config) Enabled() bool {
	if c.ForecastErrSD > 0 || c.BrownoutProb > 0 || c.RetryLimit > 0 || c.Backoff > 0 ||
		c.Policy != RequeueFront {
		return true
	}
	for _, nf := range c.Nodes {
		if nf.MTBF > 0 {
			return true
		}
	}
	return false
}

// PerturbsWindows reports whether the availability signal itself is
// perturbed (forecast error or brownouts). When false, window events
// follow the clean model exactly.
func (c Config) PerturbsWindows() bool {
	return c.ForecastErrSD > 0 || c.BrownoutProb > 0
}

// Injector produces deterministic fault schedules for a run. It is
// stateless between calls: every schedule is a pure function of
// (seed, partition, horizon), so the scheduler may query it in any
// order without perturbing the draws.
type Injector struct {
	cfg Config
}

// New validates cfg and returns an Injector for it.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg.withDefaults()}, nil
}

// Config returns the (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// RNG stream salts: one independent stream per purpose so enabling one
// fault dimension never shifts another's draws.
const (
	saltOutages  = 0x6f757467 // "outg"
	saltWindows  = 0x77696e64 // "wind"
	saltBrownout = 0x62726f77 // "brow"
	saltRetry    = 0x72747279 // "rtry"
)

// stream returns a seeded RNG for one (partition, purpose) pair.
func (in *Injector) stream(part string, salt int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(part))
	return rand.New(rand.NewSource(in.cfg.Seed ^ salt ^ int64(h.Sum64())))
}

// Outage is one node-failure event: Nodes nodes go out of service at At
// and return after Repair.
type Outage struct {
	At     sim.Time
	Repair sim.Duration
	Nodes  int
}

// Outages returns the node-failure schedule of a partition over
// [0, horizon), sorted by time. Partitions without a configured failure
// process return nil.
func (in *Injector) Outages(part string, horizon sim.Time) []Outage {
	nf, ok := in.cfg.Nodes[part]
	if !ok || nf.MTBF <= 0 {
		return nil
	}
	nf = nf.withDefaults()
	rng := in.stream(part, saltOutages)
	var out []Outage
	t := sim.Time(0)
	for {
		t += interFailure(rng, nf)
		if t >= horizon {
			return out
		}
		repair := sim.Duration(rng.ExpFloat64() * float64(nf.MeanRepair))
		out = append(out, Outage{At: t, Repair: repair, Nodes: nf.NodesPerFailure})
	}
}

// interFailure draws one inter-failure time.
func interFailure(rng *rand.Rand, nf NodeFailures) sim.Duration {
	k := nf.WeibullShape
	if k == 0 || k == 1 {
		return sim.Duration(rng.ExpFloat64() * float64(nf.MTBF))
	}
	// Weibull(k, scale) with mean = scale·Γ(1+1/k) = MTBF.
	scale := float64(nf.MTBF) / math.Gamma(1+1/k)
	u := rng.Float64()
	return sim.Duration(scale * math.Pow(-math.Log(1-u), 1/k))
}

// WindowFate is the actual outcome of one believed availability window:
// the power really ends at ActualEnd (forecast error), and
// SurvivingNodes nodes stay powered from ActualEnd until the next
// window starts (brownout; zero means a full outage).
type WindowFate struct {
	Believed       availability.Window
	ActualEnd      sim.Time
	SurvivingNodes int
}

// Brownout reports whether the window ends in a partial-capacity state.
func (f WindowFate) Brownout() bool { return f.SurvivingNodes > 0 }

// Fates maps the believed windows of a partition (sorted,
// non-overlapping, as produced by availability.Materialize) to their
// actual outcomes under forecast error and brownouts. nodes is the
// partition size, used to size brownout capacity.
func (in *Injector) Fates(part string, nodes int, ws []availability.Window) []WindowFate {
	var windRNG, brownRNG *rand.Rand
	if in.cfg.ForecastErrSD > 0 {
		windRNG = in.stream(part, saltWindows)
	}
	if in.cfg.BrownoutProb > 0 {
		brownRNG = in.stream(part, saltBrownout)
	}
	fates := make([]WindowFate, len(ws))
	for i, w := range ws {
		f := WindowFate{Believed: w, ActualEnd: w.End}
		if windRNG != nil {
			f.ActualEnd = w.End + sim.Duration(windRNG.NormFloat64()*float64(in.cfg.ForecastErrSD))
			// Keep the actual end inside (Start, nextStart): a window never
			// vanishes entirely, and never swallows its successor (the
			// margin keeps the down-transition ordered before the next
			// up-transition).
			lo := w.Start + sim.Second
			hi := sim.Time(math.Inf(1))
			if i+1 < len(ws) {
				hi = ws[i+1].Start - sim.Second
			}
			if hi < lo {
				hi = lo
			}
			if f.ActualEnd < lo {
				f.ActualEnd = lo
			}
			if f.ActualEnd > hi {
				f.ActualEnd = w.End // degenerate spacing: leave unperturbed
				if f.ActualEnd > hi {
					f.ActualEnd = hi
				}
			}
		}
		if brownRNG != nil && brownRNG.Float64() < in.cfg.BrownoutProb {
			f.SurvivingNodes = int(math.Round(in.cfg.BrownoutCapacity * float64(nodes)))
			if f.SurvivingNodes >= nodes {
				f.SurvivingNodes = nodes - 1
			}
		}
		fates[i] = f
	}
	return fates
}

// RetryDelay returns the deterministic (no-jitter) backoff before the
// k-th requeue of a job (k = 1 for the first kill). Zero when backoff is
// disabled.
func (in *Injector) RetryDelay(kills int) sim.Duration {
	if in.cfg.Backoff <= 0 || kills <= 0 {
		return 0
	}
	exp := kills - 1
	if exp > 20 { // cap: 2^20 × base is already astronomical
		exp = 20
	}
	return in.cfg.Backoff * sim.Duration(int64(1)<<exp)
}

// RetryDelayFor returns the backoff before the k-th requeue of one job.
// Without BackoffJitter it is exactly RetryDelay(kills), preserving the
// pre-jitter schedule byte-for-byte. With BackoffJitter it applies full
// jitter — uniform in (0, RetryDelay(kills)] — drawn from an RNG stream
// derived from (Seed, jobID, kills), so the delay is a pure function of
// the run configuration: same-seed runs agree, kill order never shifts
// the draws, and a resumed snapshot replays identical delays.
func (in *Injector) RetryDelayFor(jobID, kills int) sim.Duration {
	max := in.RetryDelay(kills)
	if max <= 0 || !in.cfg.BackoffJitter {
		return max
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", jobID, kills)
	rng := rand.New(rand.NewSource(in.cfg.Seed ^ saltRetry ^ int64(h.Sum64())))
	// (0, max]: a zero delay would skip the backoff event entirely and
	// change the event schedule's shape, not just its timing.
	return max * sim.Duration(1-rng.Float64())
}

// Abandon reports whether a job that has now been killed `kills` times
// has exhausted its retry budget.
func (in *Injector) Abandon(kills int) bool {
	return in.cfg.RetryLimit > 0 && kills > in.cfg.RetryLimit
}

// YoungDaly returns Young's approximation of the optimal checkpoint
// interval, √(2·overhead·MTBF), for a per-job mean time between
// interrupts. Daly's refinement subtracts the overhead; both are
// reported by the resilience experiment next to the swept optimum.
func YoungDaly(overhead, mtbf sim.Duration) sim.Duration {
	if overhead <= 0 || mtbf <= 0 {
		return 0
	}
	return sim.Duration(math.Sqrt(2 * float64(overhead) * float64(mtbf)))
}

// MeanOutageNodesDown integrates an outage schedule: the expected
// node-seconds out of service over the horizon, for reporting.
func MeanOutageNodesDown(outs []Outage, horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	var nodeSec float64
	for _, o := range outs {
		end := o.At + o.Repair
		if end > horizon {
			end = horizon
		}
		if end > o.At {
			nodeSec += float64(o.Nodes) * float64(end-o.At)
		}
	}
	return nodeSec / float64(horizon)
}

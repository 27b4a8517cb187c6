package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// percentileLadder lists the tail percentiles the benchmark may report,
// highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the p-th percentile (0 < p <= 100) of ascending
// samples by nearest rank: the smallest sample with at least p% of the
// samples at or below it. It returns NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

func nearestRank(n int, p float64) int {
	// The epsilon keeps decimal percentiles such as 99.9 from rounding a
	// whole rank up.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// tailPercentile returns the highest percentile of the ladder that has
// at least minBeyond of n samples beyond it, and false when even the
// median has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range percentileLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// median returns the middle of the samples (the mean of the middle two
// for an even count) without reordering them; NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// outcome is one request of an open-loop schedule: when it was due, and
// when it finished or was given up on.
type outcome struct {
	due time.Time
	// end is when the run finished; for a failed or shed request it is
	// when the client learned of the failure.
	end time.Time
	ok  bool
}

// latencyMS is an open-loop request's latency: from when it was due,
// not from when the generator got round to sending it, so a stalled
// generator's delay counts against the system. A failed request counts
// as missing the limit: its latency is at least limit.
func latencyMS(o outcome, limit time.Duration) float64 {
	ms := float64(o.end.Sub(o.due)) / float64(time.Millisecond)
	if !o.ok {
		ms = math.Max(ms, float64(limit)/float64(time.Millisecond))
	}
	return ms
}

// latencies returns the ascending latencies of a phase's outcomes.
func latencies(outs []outcome, limit time.Duration) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		ms[i] = latencyMS(o, limit)
	}
	sort.Float64s(ms)
	return ms
}

// goodput counts the requests that succeeded within limit, per second
// of the given interval. Failed requests are misses whatever their
// latency.
func goodput(outs []outcome, limit time.Duration, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	n := 0
	for _, o := range outs {
		if o.ok && o.end.Sub(o.due) <= limit {
			n++
		}
	}
	return float64(n) / seconds
}

// span is one timed interval the benchmark recorded around a call into
// the program. Parent is the ID of the span that caused it (0 = root);
// Req groups the spans of one request or pass.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
	// Attr carries the program's own timings attributed to this span
	// (obs.Timings deltas over the call), in seconds.
	Attr map[string]float64 `json:"attr,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once, and any part of a child outside its parent is ignored.
func selfTimes(spans []span) map[int]float64 {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	var clipped [][2]float64
	for _, x := range iv {
		a, b := math.Max(x[0], lo), math.Min(x[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end float64
	end = math.Inf(-1)
	for _, x := range clipped {
		a := math.Max(x[0], end)
		if x[1] > a {
			total += x[1] - a
		}
		end = math.Max(end, x[1])
	}
	return total
}

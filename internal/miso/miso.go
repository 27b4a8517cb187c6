// Package miso assembles the synthetic market dataset that stands in for
// the MISO real-time cleared-offer archive the ZCCloud study analyzes
// (paper, Tables III and IV): per wind site, per 5-minute interval, the
// locational marginal price, delivered power, and offered maximum.
//
// A Generator couples the wind field (internal/wind), the radial grid
// (internal/powergrid), and the merit-order market (internal/market). It
// streams interval-major batches of Records so a 28-month, 200-site
// dataset (≈49 M wind records) never needs to be resident in memory.
//
// Next produces one interval at a time on the caller's goroutine.
// Stream runs the whole dataset: a producer goroutine generates batches
// of intervals while the caller's callback consumes the previous batch,
// in interval order, so generation and analysis overlap on two cores
// with the same records as a Next loop. WriteCSV and every full pass
// over a synthetic dataset use Stream.
package miso

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"zccloud/internal/market"
	"zccloud/internal/powergrid"
	"zccloud/internal/solar"
	"zccloud/internal/wind"
)

// IntervalMinutes is the market clearing cadence (paper: MISO runs a
// 5-minute real-time market).
const IntervalMinutes = 5

// IntervalsPerDay is the number of market intervals per day.
const IntervalsPerDay = 24 * 60 / IntervalMinutes

// PaperDays is the span of the paper's dataset: 1/1/2013–4/14/2015.
const PaperDays = 834

// PaperWindSites is the number of wind generation sites in Table III.
const PaperWindSites = 200

// Record is one wind site's cleared-offer row (Table IV).
type Record struct {
	Interval      int64   // 5-minute interval index from dataset start
	Site          int32   // wind site index
	LMP           float64 // $/MWh at the site's bus
	DeliveredMW   float64 // cleared power
	EconomicMaxMW float64 // offered power
}

// CurtailedMW returns the dispatch-down amount of the record.
func (r Record) CurtailedMW() float64 { return r.EconomicMaxMW - r.DeliveredMW }

// Scenario selects the grid and renewable mix.
type Scenario string

// Scenarios.
const (
	// ScenarioMISO is the paper's system: wind-dominated Midwest grid.
	ScenarioMISO Scenario = "miso"
	// ScenarioCAISO is the future-work system: solar-dominated
	// California-like grid with duck-curve stranding.
	ScenarioCAISO Scenario = "caiso"
)

// Config controls dataset synthesis.
type Config struct {
	Seed      int64
	Days      float64 // dataset span; defaults to PaperDays
	WindSites int     // renewable units; defaults to PaperWindSites
	// Scenario selects the grid; empty means ScenarioMISO.
	Scenario Scenario
	// StartDay offsets the seasonal and weekly phase: 0 is January 1.
	// Record interval indices remain zero-based.
	StartDay float64
	// MeanCF overrides the wind fleet's mean capacity factor.
	MeanCF float64
	// LoadNoiseSD is the stationary SD of multiplicative AR(1) load
	// noise; defaults to 0.03.
	LoadNoiseSD float64
}

func (c Config) withDefaults() Config {
	if c.Days == 0 {
		c.Days = PaperDays
	}
	if c.WindSites == 0 {
		c.WindSites = PaperWindSites
	}
	if c.LoadNoiseSD == 0 {
		c.LoadNoiseSD = 0.03
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Days <= 0:
		return fmt.Errorf("miso: days %v <= 0", c.Days)
	case c.WindSites <= 0:
		return fmt.Errorf("miso: wind sites %d <= 0", c.WindSites)
	case c.LoadNoiseSD < 0 || c.LoadNoiseSD > 0.5:
		return fmt.Errorf("miso: load noise SD %v outside [0,0.5]", c.LoadNoiseSD)
	case c.StartDay < 0:
		return fmt.Errorf("miso: start day %v < 0", c.StartDay)
	case c.Scenario != "" && c.Scenario != ScenarioMISO && c.Scenario != ScenarioCAISO:
		return fmt.Errorf("miso: unknown scenario %q", c.Scenario)
	}
	return nil
}

// Summary accumulates the Table III dataset statistics as the generator
// runs.
type Summary struct {
	Days          float64
	Sites         int // generation sites (wind + thermal units)
	WindSites     int
	Intervals     int64 // total generator-intervals (all sites)
	WindIntervals int64
	TotalGWh      float64
	WindGWh       float64
	TotalDollars  float64 // sum of LMP × delivered MWh over all generators
	WindDollars   float64
	// WindCurtailedGWh is dispatch-down energy (Figure 2's quantity).
	WindCurtailedGWh float64
}

// Generator streams the dataset.
type Generator struct {
	cfg        Config
	net        *powergrid.Network
	eng        *market.Engine
	windField  *wind.Field  // nil if the scenario has no wind
	solarField *solar.Field // nil if the scenario has no solar
	rng        *rand.Rand
	windIdx    []int // generator index per renewable site
	siteBus    []powergrid.BusID
	siteKind   []powergrid.GenType
	siteField  []int // index within the site's kind-specific field
	siteNode   []int // dense renewable-node (bus) index per site
	nodeCount  int
	nodeRegion []int

	interval     int64
	maxIntervals int64
	baseLoad     []float64
	loadNoise    []float64 // AR(1) state per bus with load
	loadBuses    []int
	loads        []float64
	gmax         []float64
	res          market.Result
	sum          Summary
}

// NewGenerator builds the coupled wind–grid–market system.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var net *powergrid.Network
	var err error
	if cfg.Scenario == ScenarioCAISO {
		net, err = powergrid.BuildCAISO(powergrid.CAISOConfig{
			Sites: cfg.WindSites,
			Seed:  cfg.Seed ^ 0x5bd1e995,
		})
	} else {
		net, err = powergrid.BuildDefault(powergrid.DefaultConfig{
			WindSites: cfg.WindSites,
			Seed:      cfg.Seed ^ 0x5bd1e995,
		})
	}
	if err != nil {
		return nil, err
	}
	eng, err := market.NewEngine(net)
	if err != nil {
		return nil, err
	}
	// Wind field regions follow the buses the units sit on.
	regions := 0
	for _, b := range net.Buses {
		if b.Region+1 > regions {
			regions = b.Region + 1
		}
	}
	windIdx := make([]int, cfg.WindSites)
	siteBus := make([]powergrid.BusID, cfg.WindSites)
	siteKind := make([]powergrid.GenType, cfg.WindSites)
	siteField := make([]int, cfg.WindSites)
	var windRegions, solarRegions []int
	found := 0
	for gi, g := range net.Gens {
		if !g.Type.Renewable() {
			continue
		}
		if g.WindSite < 0 || g.WindSite >= cfg.WindSites {
			return nil, fmt.Errorf("miso: renewable site index %d out of range", g.WindSite)
		}
		windIdx[g.WindSite] = gi
		siteBus[g.WindSite] = g.Bus
		siteKind[g.WindSite] = g.Type
		reg := net.Buses[g.Bus].Region
		if g.Type == powergrid.Wind {
			siteField[g.WindSite] = len(windRegions)
			windRegions = append(windRegions, reg)
		} else {
			siteField[g.WindSite] = len(solarRegions)
			solarRegions = append(solarRegions, reg)
		}
		found++
	}
	if found != cfg.WindSites {
		return nil, fmt.Errorf("miso: network has %d renewable units, config wants %d", found, cfg.WindSites)
	}
	var windField *wind.Field
	var solarField *solar.Field
	if len(windRegions) > 0 {
		windField, err = wind.NewFieldWithRegions(regions, windRegions, cfg.Seed^0x2545f491, cfg.MeanCF, cfg.StartDay*24)
		if err != nil {
			return nil, err
		}
	}
	if len(solarRegions) > 0 {
		solarField, err = solar.NewFieldWithRegions(regions, solarRegions, cfg.Seed^0x7ed55d16, cfg.StartDay*24)
		if err != nil {
			return nil, err
		}
	}
	g := &Generator{
		cfg:          cfg,
		net:          net,
		eng:          eng,
		windField:    windField,
		solarField:   solarField,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		windIdx:      windIdx,
		siteBus:      siteBus,
		siteKind:     siteKind,
		siteField:    siteField,
		maxIntervals: int64(cfg.Days * IntervalsPerDay),
		baseLoad:     make([]float64, len(net.Buses)),
		loads:        make([]float64, len(net.Buses)),
		gmax:         make([]float64, len(net.Gens)),
	}
	// Dense wind-node indices: sites on the same bus share one node (the
	// paper treats same-node sites as a single site for Figures 11/12).
	g.siteNode = make([]int, cfg.WindSites)
	busNode := make(map[powergrid.BusID]int)
	for s := 0; s < cfg.WindSites; s++ {
		b := siteBus[s]
		idx, ok := busNode[b]
		if !ok {
			idx = g.nodeCount
			busNode[b] = idx
			g.nodeCount++
			g.nodeRegion = append(g.nodeRegion, net.Buses[b].Region)
		}
		g.siteNode[s] = idx
	}
	for _, l := range net.Loads {
		g.baseLoad[l.Bus] += l.BaseMW
	}
	for b, base := range g.baseLoad {
		if base > 0 {
			g.loadBuses = append(g.loadBuses, b)
		}
	}
	g.loadNoise = make([]float64, len(net.Buses))
	g.sum.Days = cfg.Days
	g.sum.Sites = len(net.Gens)
	g.sum.WindSites = cfg.WindSites
	return g, nil
}

// Network exposes the underlying grid (read-only) for reporting.
func (g *Generator) Network() *powergrid.Network { return g.net }

// SiteRegion returns the grid region of a wind site.
func (g *Generator) SiteRegion(site int) int { return g.net.Buses[g.siteBus[site]].Region }

// SiteNode returns the dense wind-node index of a site — sites attached
// to the same grid bus share a node and therefore pricing behavior.
func (g *Generator) SiteNode(site int) int { return g.siteNode[site] }

// NodeCount returns the number of distinct wind nodes.
func (g *Generator) NodeCount() int { return g.nodeCount }

// NodeRegion returns the grid region of a wind node.
func (g *Generator) NodeRegion(node int) int { return g.nodeRegion[node] }

// SiteNameplateMW returns a wind site's nameplate capacity.
func (g *Generator) SiteNameplateMW(site int) float64 {
	return g.net.Gens[g.windIdx[site]].NameplateMW
}

// Intervals returns the total number of 5-minute intervals the dataset
// will contain.
func (g *Generator) Intervals() int64 { return g.maxIntervals }

// Summary returns dataset statistics accumulated so far.
func (g *Generator) Summary() Summary { return g.sum }

// Next produces the records of the next interval, one per wind site,
// appending into buf (which is returned re-sliced). It returns false when
// the dataset is exhausted.
func (g *Generator) Next(buf []Record) ([]Record, bool) {
	return g.appendNext(buf[:0])
}

// Stream batch shape: the producer hands over streamBatch intervals at
// a time, and streamBuffers batch buffers circulate between it and the
// consumer, so it runs at most streamBuffers-1 batches ahead.
const (
	streamBatch   = 16
	streamBuffers = 2
)

// Stream generates the rest of the dataset and calls fn with its
// records in interval order, one batch of up to streamBatch whole
// intervals at a time (site order within an interval, as Next). fn runs
// on the caller's goroutine while a producer goroutine generates the
// next batch; fn must not keep the slice after it returns, and must not
// call the Generator's stateful methods (Next, Stream, Summary) —
// read Summary after Stream returns. If fn returns an error, the stream
// stops and Stream returns that error; the generator has then run up to
// streamBuffers-1 batches past the last one fn saw. Stream returns only
// after the producer has stopped, also when fn panics; a panic in the
// producer is re-raised on the caller's goroutine.
func (g *Generator) Stream(fn func([]Record) error) error {
	// Each channel can hold every batch buffer at once, so no send on
	// either blocks.
	free := make(chan []Record, streamBuffers)
	for i := 0; i < streamBuffers; i++ {
		free <- make([]Record, 0, streamBatch*g.cfg.WindSites)
	}
	full := make(chan []Record, streamBuffers)
	stop := make(chan struct{})
	var panicked any
	go func() {
		defer close(full)
		defer func() { panicked = recover() }()
		for more := true; more; {
			var batch []Record
			select {
			case batch = <-free:
			case <-stop:
				return
			}
			batch = batch[:0]
			for k := 0; k < streamBatch && more; k++ {
				batch, more = g.appendNext(batch)
			}
			if len(batch) > 0 {
				full <- batch
			}
		}
	}()
	defer func() {
		close(stop)
		for range full {
		}
		if panicked != nil {
			panic(panicked)
		}
	}()
	for batch := range full {
		if err := fn(batch); err != nil {
			return err
		}
		free <- batch
	}
	return nil
}

// appendNext appends the records of the next interval to buf and
// reports whether there was one.
func (g *Generator) appendNext(buf []Record) ([]Record, bool) {
	if g.interval >= g.maxIntervals {
		return buf, false
	}
	hrs := g.cfg.StartDay*24 + float64(g.interval)*IntervalMinutes/60

	// Loads: shaped base with slowly-varying multiplicative noise.
	const noiseA = 0.995 // AR(1) pole per 5-min step: ~8 h correlation
	shape := market.LoadShape(hrs)
	for _, b := range g.loadBuses {
		g.loadNoise[b] = noiseA*g.loadNoise[b] +
			g.cfg.LoadNoiseSD*sqrt1ma2(noiseA)*g.rng.NormFloat64()
		g.loads[b] = g.baseLoad[b] * shape * (1 + g.loadNoise[b])
		if g.loads[b] < 0 {
			g.loads[b] = 0
		}
	}

	// Offers: renewables at capacity factor, thermal at nameplate.
	for i, gen := range g.net.Gens {
		if gen.Type.Renewable() {
			g.gmax[i] = gen.NameplateMW * g.capacityFactor(gen.WindSite)
		} else {
			g.gmax[i] = gen.NameplateMW
		}
	}

	if err := g.eng.Run(g.loads, g.gmax, &g.res); err != nil {
		// Inputs are produced internally; a failure here is a bug.
		panic(fmt.Sprintf("miso: dispatch failed: %v", err))
	}

	hours := float64(IntervalMinutes) / 60
	for site := 0; site < g.cfg.WindSites; site++ {
		gi := g.windIdx[site]
		rec := Record{
			Interval:      g.interval,
			Site:          int32(site),
			LMP:           g.res.LMP[g.siteBus[site]],
			DeliveredMW:   g.res.GenOutputMW[gi],
			EconomicMaxMW: g.res.GenMaxMW[gi],
		}
		buf = append(buf, rec)
		g.sum.WindIntervals++
		g.sum.WindGWh += rec.DeliveredMW * hours / 1000
		g.sum.WindDollars += rec.LMP * rec.DeliveredMW * hours
		g.sum.WindCurtailedGWh += rec.CurtailedMW() * hours / 1000
	}
	for gi := range g.net.Gens {
		mwh := g.res.GenOutputMW[gi] * hours
		g.sum.Intervals++
		g.sum.TotalGWh += mwh / 1000
		g.sum.TotalDollars += g.res.LMP[g.net.Gens[gi].Bus] * mwh
	}

	if g.windField != nil {
		g.windField.Step()
	}
	if g.solarField != nil {
		g.solarField.Step()
	}
	g.interval++
	return buf, true
}

// capacityFactor looks up a renewable site's current capacity factor in
// its kind-specific field.
func (g *Generator) capacityFactor(site int) float64 {
	if g.siteKind[site] == powergrid.Solar {
		return g.solarField.CapacityFactor(g.siteField[site])
	}
	return g.windField.CapacityFactor(g.siteField[site])
}

// SiteKind returns whether a renewable site is wind or solar.
func (g *Generator) SiteKind(site int) powergrid.GenType { return g.siteKind[site] }

// sqrt1ma2 returns sqrt(1-a²) for AR(1) innovations.
func sqrt1ma2(a float64) float64 { return math.Sqrt(1 - a*a) }

// csvHeader is the on-disk layout of a record stream.
var csvHeader = []string{"interval", "site", "lmp", "delivered_mw", "economic_max_mw"}

// WriteCSV streams the rest of gen's dataset to w in CSV form and
// returns the number of rows written. A write error ends the stream.
func WriteCSV(g *Generator, w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(strings.Join(csvHeader, ",") + "\n"); err != nil {
		return 0, err
	}
	var rows int64
	var line []byte
	err := g.Stream(func(batch []Record) error {
		for _, r := range batch {
			line = strconv.AppendInt(line[:0], r.Interval, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(r.Site), 10)
			line = append(line, ',')
			line = strconv.AppendFloat(line, r.LMP, 'f', 3, 64)
			line = append(line, ',')
			line = strconv.AppendFloat(line, r.DeliveredMW, 'f', 3, 64)
			line = append(line, ',')
			line = strconv.AppendFloat(line, r.EconomicMaxMW, 'f', 3, 64)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
			rows++
		}
		return nil
	})
	if err != nil {
		return rows, err
	}
	return rows, bw.Flush()
}

// ParseError locates a malformed line in a record-stream CSV.
type ParseError struct {
	File string // input name, if the caller provided one
	Line int    // 1-based line number (line 1 is the header)
	Err  error
}

func (e *ParseError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("miso: line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("miso: %s:%d: %v", e.File, e.Line, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// ReadCSV streams records from r, invoking fn per record, in bounded
// memory regardless of input size. It stops early if fn returns an
// error. Malformed input yields a *ParseError. Gzipped input is
// detected by magic bytes and decompressed transparently, so
// paper-scale archives can stay compressed on disk.
func ReadCSV(r io.Reader, fn func(Record) error) error {
	return ReadCSVFile("", r, fn)
}

// ReadAllCSV materializes an entire record stream into a slice. It is a
// thin wrapper over the streaming ReadCSV; prefer the callback form for
// paper-scale inputs, which need not fit in memory.
func ReadAllCSV(r io.Reader) ([]Record, error) {
	var recs []Record
	if err := ReadCSV(r, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return recs, nil
}

// ReadCSVFile is ReadCSV with an input name carried into errors.
func ReadCSVFile(name string, r io.Reader, fn func(Record) error) error {
	br := bufio.NewReaderSize(r, 1<<20)
	if hdr, perr := br.Peek(2); perr == nil && hdr[0] == 0x1f && hdr[1] == 0x8b {
		zr, zerr := gzip.NewReader(br)
		if zerr != nil {
			return &ParseError{File: name, Line: 1, Err: fmt.Errorf("gzip: %v", zerr)}
		}
		defer zr.Close()
		br = bufio.NewReaderSize(zr, 1<<20)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return &ParseError{File: name, Line: 1, Err: fmt.Errorf("reading header: %v", err)}
	}
	if strings.TrimSpace(line) != strings.Join(csvHeader, ",") {
		return &ParseError{File: name, Line: 1,
			Err: fmt.Errorf("unexpected header %q", strings.TrimSpace(line))}
	}
	for lineNo := 2; ; lineNo++ {
		line, err = br.ReadString('\n')
		if line == "" && err == io.EOF {
			return nil
		}
		if err != nil && err != io.EOF {
			return &ParseError{File: name, Line: lineNo, Err: err}
		}
		rec, perr := parseRecord(strings.TrimSpace(line))
		if perr != nil {
			return &ParseError{File: name, Line: lineNo, Err: perr}
		}
		if ferr := fn(rec); ferr != nil {
			return ferr
		}
		if err == io.EOF {
			return nil
		}
	}
}

func parseRecord(line string) (Record, error) {
	var rec Record
	fields := strings.Split(line, ",")
	if len(fields) != len(csvHeader) {
		return rec, fmt.Errorf("want %d fields, got %d", len(csvHeader), len(fields))
	}
	iv, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return rec, err
	}
	site, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return rec, err
	}
	lmp, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return rec, err
	}
	del, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return rec, err
	}
	emax, err := strconv.ParseFloat(fields[4], 64)
	if err != nil {
		return rec, err
	}
	rec = Record{Interval: iv, Site: int32(site), LMP: lmp, DeliveredMW: del, EconomicMaxMW: emax}
	return rec, nil
}

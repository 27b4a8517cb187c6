package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"zccloud/internal/admit"
	"zccloud/internal/obs"
	"zccloud/internal/persist"
	"zccloud/internal/serve"
	"zccloud/internal/sim"
	"zccloud/internal/tracebin"
)

// Open-loop load: independent users submitting on a fixed-rate schedule
// whatever the server's state. The rates are absolute, so that every
// version of the program receives the same load: about 40% and 80% of
// the ~100 runs/s this server sustained on a 2-core machine through its
// host's slow spells (the highest rate with no growing backlog in every
// try; ~155 runs/s on a fast spell).
const (
	lowRate  = 40.0 // submissions per second in the low phase
	highRate = 80.0 // submissions per second in the high phase
	// latencyLimit is the due→done latency goodput counts against.
	latencyLimit = 1000 * time.Millisecond
	// bigEvery, traceEvery: one spec in bigEvery is a full-Mira
	// kill-requeue run with faults, one in traceEvery requests a trace.
	bigEvery   = 8
	traceEvery = 4
	// pollEvery is how often the client re-reads one outstanding run.
	pollEvery = 20 * time.Millisecond
	// settleTimeout bounds the wait for the last runs after the
	// schedule ends; runs still open then count as failed.
	settleTimeout = 60 * time.Second
	// serverSetups is how many times a run constructs a server, so
	// setup_s is a median.
	serverSetups = 15
)

// arrival is one scheduled submission.
type arrival struct {
	phase  string        // "low" or "high"
	offset time.Duration // when it is due, from the schedule's start
	spec   serve.Spec
}

// openLoopInputs generates the arrival schedule and spec mix from the
// seed. Each phase submits at its fixed rate, one arrival per slot at a
// seeded point inside the slot. Every bigEvery-th spec (every
// traceEvery-th, from a seeded offset) is a big run (requests a trace),
// so every seed offers the same load; the seed picks the specs' own
// seeds, and with them their workloads.
func openLoopInputs(seed int64, seconds float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	bigAt, traceAt := rng.Intn(bigEvery), rng.Intn(traceEvery)
	var out []arrival
	add := func(phase string, start time.Duration, rate float64) time.Duration {
		n := int(rate * seconds / 2)
		for i := 0; i < n; i++ {
			k := len(out)
			due := start + time.Duration((float64(i)+rng.Float64())/rate*float64(time.Second))
			sp := serve.Spec{
				Name:            fmt.Sprintf("%s-%d", phase, i),
				Seed:            1 + rng.Int63n(1<<30),
				Days:            7,
				MiraNodes:       8192,
				DeadlineSeconds: 120,
			}
			if k%bigEvery == bigAt {
				sp.Days, sp.MiraNodes = 28, 0 // full Mira
				sp.ZCFactor, sp.KillRequeue = 1, true
				sp.MTBFHours = 24
			}
			if k%traceEvery == traceAt {
				sp.Trace = fmt.Sprintf("run-%d.zct", k)
			}
			out = append(out, arrival{phase: phase, offset: due, spec: sp})
		}
		return start + time.Duration(float64(n)/rate*float64(time.Second))
	}
	end := add("low", 0, lowRate)
	add("high", end, highRate)
	return out
}

// daemon is a zccd server on a loopback listener, built the way
// cmd/zccd builds it: two workers, a data dir (so every transition is
// fsynced), a logger writing to a discard writer, and power admission
// armed over a schedule that stays open.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	dir  string
	done chan struct{}
}

func startDaemon(dir string) (*daemon, error) {
	env, err := admit.NewEnvelope([]admit.Window{{Start: 0, End: sim.Time(365 * sim.Day)}}, 0, nil)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Workers:    2,
		QueueDepth: 4096,
		DataDir:    dir,
		Log:        obs.NewLogger(io.Discard, obs.LevelInfo, obs.Logfmt),
		Power: admit.Config{
			Envelope: env,
			Clock:    admit.Clock{Epoch: time.Now()},
			Policy:   admit.PolicyShed,
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, dir: dir,
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop drains the server and waits for the HTTP server to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	<-d.done
	return err
}

// client is one HTTP connection's worth of requests.
func newClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// submission is what the client learned about one arrival.
type submission struct {
	arrival
	due, sent, resp time.Time
	id              string
	info            serve.RunInfo // final view, once terminal
	end             time.Time     // finish, or when the failure was seen
	ok              bool
	problem         string
}

func runOpenLoop(cfg config, rec *recorder) (*report, error) {
	rep := newReport()
	base, err := filepath.Abs(filepath.Join(cfg.out, fmt.Sprintf("zccd-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// The first set-up warms the process up and is not timed; each timed
	// one starts from the same heap state. Calibration kernels run
	// before the schedule and after the drain, outside every timing.
	var cal calibration
	var setups []float64
	var d *daemon
	var plan []arrival
	for i := 0; i <= serverSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		cal.sample()
		t := time.Now()
		plan = openLoopInputs(cfg.seed, cfg.seconds)
		d, err = startDaemon(filepath.Join(base, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, since(t))
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	subs := make([]*submission, len(plan))
	for i := range plan {
		subs[i] = &submission{arrival: plan[i]}
	}
	// getMS belongs to the poller until pollerDone closes.
	var postMS, getMS []float64
	pending := make(chan *submission, len(subs))
	pollerDone := make(chan struct{})
	var memBefore runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&memBefore)
	}
	start := time.Now()

	// The poller: one connection re-reading outstanding runs until each
	// is terminal, so reads run beside the journaled writes.
	go func() {
		defer close(pollerDone)
		c := newClient()
		defer c.CloseIdleConnections()
		var open []*submission
		last := map[*submission]time.Time{}
		in := pending
		more := true
		var giveUp time.Time
		for more || len(open) > 0 {
			for drained := false; !drained; {
				select {
				case s, ok := <-in:
					if !ok {
						more, in = false, nil
						giveUp = time.Now().Add(settleTimeout)
						drained = true
					} else {
						open = append(open, s)
					}
				default:
					drained = true
				}
			}
			if !more && time.Now().After(giveUp) {
				for _, s := range open {
					s.end, s.problem = time.Now(), "not terminal before the settle timeout"
				}
				return
			}
			polled := false
			kept := open[:0]
			for _, s := range open {
				if time.Since(last[s]) < pollEvery {
					kept = append(kept, s)
					continue
				}
				polled = true
				t := time.Now()
				info, err := getRun(c, d.url, s.id)
				last[s] = time.Now()
				getMS = append(getMS, ms(last[s].Sub(t)))
				if err != nil {
					s.end, s.problem = time.Now(), err.Error()
					delete(last, s)
					continue
				}
				if !info.State.Terminal() {
					kept = append(kept, s)
					continue
				}
				delete(last, s)
				s.info = info
				s.end = time.Now()
				if info.Finished != nil {
					s.end = *info.Finished
				}
				s.ok = info.State == serve.StateDone && info.Metrics != nil
				if !s.ok {
					s.problem = fmt.Sprintf("%s ended %s: %s", s.id, info.State, info.Error)
				}
			}
			open = kept
			if !polled {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// The sender: submits each arrival when it is due, on its own
	// connection, without waiting for earlier runs.
	c := newClient()
	for _, s := range subs {
		s.due = start.Add(s.offset)
		time.Sleep(time.Until(s.due))
		s.sent = time.Now()
		info, status, err := postRun(c, d.url, s.spec)
		s.resp = time.Now()
		postMS = append(postMS, ms(s.resp.Sub(s.sent)))
		switch {
		case err != nil:
			s.end, s.problem = s.resp, err.Error()
		case status != http.StatusAccepted:
			s.end, s.problem = s.resp, fmt.Sprintf("submit answered %d", status)
		default:
			s.id = info.ID
			pending <- s
		}
	}
	close(pending)
	c.CloseIdleConnections()
	<-pollerDone

	// The client's result: a table of every run, rendered once the last
	// run is done.
	results := renderRuns(subs)
	finished := time.Now()
	if rec != nil {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		memDelta(rep.layer, &memBefore, &memAfter)
	}
	metricsText, merr := scrape(d.url)
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if merr != nil {
		return nil, merr
	}
	settle()
	for i := 0; i <= serverSetups; i++ {
		cal.sample()
	}
	f := cal.factor()
	rep.speed = f
	rep.layer["host.speed_factor"] = f

	rep.attempted = len(subs)
	accepted := 0
	for _, s := range subs {
		if s.id != "" {
			accepted++
		}
		if !s.ok {
			rep.failed++
			if s.problem != "" {
				fmt.Fprintln(os.Stderr, "perfbench: run failed:", s.problem)
			}
		}
	}
	checkJournal(rep, d.dir, subs)
	traces := checkTraces(rep, d.dir, subs)

	byPhase := map[string][]outcome{}
	var lag []float64
	for _, s := range subs {
		byPhase[s.phase] = append(byPhase[s.phase], outcome{due: s.due, end: s.end, ok: s.ok})
		lag = append(lag, ms(s.sent.Sub(s.due)))
	}
	// Set-up is CPU work and is reported in reference seconds. The
	// latencies are not: they are mostly goroutine wake-ups, syscalls
	// and fsyncs, which the kernel's speed does not track (scaled, their
	// spread over ten seeds grew from 0.2 to 0.3–0.5). The makespan and
	// goodput track the fixed schedule.
	rep.e2e["setup_s"] = f * median(setups)
	rep.e2e["tables_s"] = finished.Sub(subs[0].due).Seconds()
	for _, phase := range []string{"low", "high"} {
		lat := latencies(byPhase[phase], latencyLimit)
		if p, ok := tailPercentile(len(lat)); !ok || p < 95 {
			fmt.Fprintf(os.Stderr, "perfbench: %s phase has %d runs, too few for a p95 with %d beyond it\n", phase, len(lat), minBeyond)
		}
		rep.e2e[phase+".latency_p50_ms"] = percentile(lat, 50)
		rep.e2e[phase+".latency_p95_ms"] = percentile(lat, 95)
	}
	high := byPhase["high"]
	var highEnd time.Time
	for _, o := range high {
		if o.end.After(highEnd) {
			highEnd = o.end
		}
	}
	rep.e2e["high.goodput_rps"] = goodput(high, latencyLimit, highEnd.Sub(high[0].due).Seconds())
	if rec == nil {
		return rep, nil
	}

	// Per-layer numbers, from the client's timings, the run views and
	// the server's own /metrics. Spans are built from timestamps after
	// the drain, so tracing adds no work inside the measured window: the
	// overhead reported is the bookkeeping's time as a share of it.
	bookkeeping := time.Now()
	l := rep.layer
	var queue, exec, execTraced []float64
	var splitLag, splitIngress, splitQueue, splitExec, total float64
	nOK := 0
	for _, s := range subs {
		if !s.ok || s.info.Started == nil {
			continue
		}
		sub, st, fin := s.info.Submitted, *s.info.Started, *s.info.Finished
		queue = append(queue, ms(st.Sub(sub)))
		exec = append(exec, ms(fin.Sub(st)))
		if s.spec.Trace != "" {
			execTraced = append(execTraced, ms(fin.Sub(st)))
		}
		root := rec.add("run", 0, s.id, s.due, fin)
		rec.add("client.lag", root, s.id, s.due, s.sent)
		rec.add("serve.ingress", root, s.id, s.sent, sub)
		rec.add("serve.queue", root, s.id, sub, st)
		rec.add("serve.exec", root, s.id, st, fin)
		rec.add("serve.post", root, s.id, s.sent, s.resp)
		splitLag += ms(s.sent.Sub(s.due))
		splitIngress += ms(sub.Sub(s.sent))
		splitQueue += ms(st.Sub(sub))
		splitExec += ms(fin.Sub(st))
		total += ms(fin.Sub(s.due))
		nOK++
	}
	post, get := sortedCopy(postMS), sortedCopy(getMS)
	queue, exec, execTraced = sortedCopy(queue), sortedCopy(exec), sortedCopy(execTraced)
	l["serve.post_ms.p50"] = percentile(post, 50)
	l["serve.post_ms.p95"] = percentile(post, 95)
	l["serve.get_ms.p50"] = percentile(get, 50)
	l["serve.queue_wait_ms.p50"] = percentile(queue, 50)
	l["serve.queue_wait_ms.p95"] = percentile(queue, 95)
	l["serve.exec_ms.p50"] = percentile(exec, 50)
	l["serve.exec_ms.p95"] = percentile(exec, 95)
	l["serve.exec_traced_ms.p50"] = percentile(execTraced, 50)
	l["serve.polls"] = float64(len(getMS))
	l["client.sent"] = float64(len(postMS))
	l["client.lag_p95_ms"] = percentile(sortedCopy(lag), 95)
	if nOK > 0 {
		n := float64(nOK)
		l["split.lag_ms"] = splitLag / n
		l["split.ingress_ms"] = splitIngress / n
		l["split.queue_ms"] = splitQueue / n
		l["split.exec_ms"] = splitExec / n
		l["trace.self_sum_frac"] = (splitLag + splitIngress + splitQueue + splitExec) / total
	}
	prom := parseProm(metricsText)
	l["serve.shed"] = prom["zccloud_serve_runs_shed"] + prom["zccloud_serve_power_admit_shed"]
	l["admit.decisions"] = prom["zccloud_serve_power_admit_ok"] + prom["zccloud_serve_power_admit_park"] +
		prom["zccloud_serve_power_admit_shed"]
	jr, jb := journalSize(d.dir)
	l["persist.journal_records"] = float64(jr)
	l["persist.journal_bytes"] = float64(jb)
	if accepted > 0 {
		l["persist.records_per_run"] = float64(jr) / float64(accepted)
	}
	l["tracebin.traces"] = float64(traces.files)
	l["tracebin.trace_bytes"] = float64(traces.bytes)
	if traces.events > 0 {
		l["tracebin.bytes_per_event"] = float64(traces.bytes) / float64(traces.events)
	}
	l["trace.overhead_frac"] = since(bookkeeping) / finished.Sub(subs[0].due).Seconds()
	rep.layerTable = renderSplitTable(l, total/float64(max(nOK, 1)), nOK)
	rep.dump["metrics_text"] = metricsText
	rep.dump["results_digest"] = digest(results)
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func postRun(c *http.Client, url string, sp serve.Spec) (serve.RunInfo, int, error) {
	var info serve.RunInfo
	body, err := json.Marshal(sp)
	if err != nil {
		return info, 0, err
	}
	resp, err := c.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return info, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return info, resp.StatusCode, nil
	}
	return info, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&info)
}

func getRun(c *http.Client, url, id string) (serve.RunInfo, error) {
	var info serve.RunInfo
	resp, err := c.Get(url + "/v1/runs/" + id)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return info, fmt.Errorf("GET %s answered %d", id, resp.StatusCode)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

func scrape(url string) (string, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// parseProm reads the unlabeled samples of a Prometheus text scrape.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// renderRuns is the client's summary of its batch: one line per run.
func renderRuns(subs []*submission) string {
	var b strings.Builder
	b.WriteString("| run | name | state | jobs completed | mean wait (h) |\n|---|---|---|---|---|\n")
	for _, s := range subs {
		completed, wait := 0, 0.0
		if m := s.info.Metrics; m != nil {
			completed, wait = m.Completed, m.AvgWaitHrs
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %.3f |\n", s.id, s.spec.Name, s.info.State, completed, wait)
	}
	return b.String()
}

type journalEntry struct {
	Run   string      `json:"run"`
	State serve.State `json:"state"`
}

// checkJournal replays runs.jsonl after the drain: every accepted run's
// last record must be done.
func checkJournal(rep *report, dir string, subs []*submission) {
	last := map[string]serve.State{}
	err := persist.ReadJournal(filepath.Join(dir, "runs.jsonl"), func() any { return &journalEntry{} },
		func(rec any) error {
			e := rec.(*journalEntry)
			last[e.Run] = e.State
			return nil
		})
	if err != nil {
		rep.problem("reading the run journal: %v", err)
		return
	}
	for _, s := range subs {
		if s.id != "" && last[s.id] != serve.StateDone {
			rep.problem("journal: %s ends %q, want done", s.id, last[s.id])
		}
	}
}

func journalSize(dir string) (records, bytes int64) {
	b, err := os.ReadFile(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		return 0, 0
	}
	return int64(strings.Count(string(b), "\n")), int64(len(b))
}

type traceTotals struct {
	files, bytes, events int64
}

// checkTraces opens every committed .zct: it must decode its index and
// hold events.
func checkTraces(rep *report, dir string, subs []*submission) traceTotals {
	var t traceTotals
	for _, s := range subs {
		if s.spec.Trace == "" || !s.ok {
			continue
		}
		path := s.info.Trace
		if path == "" || !strings.HasPrefix(path, dir) {
			rep.problem("%s: trace %q not under the data dir", s.id, path)
			continue
		}
		fr, err := tracebin.Open(path)
		if err != nil {
			rep.problem("%s: opening trace: %v", s.id, err)
			continue
		}
		n := fr.Events()
		fr.Close()
		st, err := os.Stat(path)
		if err != nil {
			rep.problem("%s: %v", s.id, err)
			continue
		}
		if n == 0 {
			rep.problem("%s: trace has no events", s.id)
		}
		t.files++
		t.bytes += st.Size()
		t.events += int64(n)
	}
	return t
}

func renderSplitTable(l map[string]float64, meanLatency float64, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "zccd-open-loop: mean due→done split over %d runs\n", n)
	var sum float64
	for _, k := range []string{"lag", "ingress", "queue", "exec"} {
		v := l["split."+k+"_ms"]
		sum += v
		fmt.Fprintf(&b, "  %-10s %9.3f ms\n", k, v)
	}
	fmt.Fprintf(&b, "  %-10s %9.3f ms  (mean latency %.3f ms)\n", "sum", sum, meanLatency)
	return b.String()
}

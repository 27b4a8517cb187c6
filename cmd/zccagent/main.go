// Command zccagent is the worker half of distributed experiment
// sweeps: it registers with a zccd control plane, heartbeats, and pulls
// sweep cells to execute until told to stop.
//
//	zccagent -server http://127.0.0.1:8421 -name $(hostname) -parallel 4
//
// Each pulled cell arrives as a lease — a monotonic fencing token plus
// a deadline — and the agent's heartbeats renew every held lease while
// its cells run (-parallel N holds up to N at once). A completed cell
// is reported back under its token; if the control plane reaped this
// agent in the meantime (a long GC pause, a network partition), the
// token is stale, the result is rejected, and the cell has already
// been requeued elsewhere — the agent just drops it and re-registers.
// SIGINT/SIGTERM drains gracefully: every in-flight cell is
// interrupted at its next event boundary and released back to the
// queue front (no retry penalty), the agent deregisters, and exits 0.
//
// Partition tolerance is one policy, not per-call-site heroics: every
// request goes through internal/retryhttp — a per-attempt timeout,
// capped exponential backoff with full jitter, server Retry-After
// hints honored, and one X-Request-ID reused across a logical
// request's attempts so the control plane's idempotency cache replays
// the first execution's answer instead of executing twice. A zccd
// restart therefore looks like a brief partition: requests retry,
// heartbeats eventually see 404, and the agent re-registers forever
// (aborting only on drain) rather than dying.
//
// Every log line carries agent_id — with run_id and cell bound while a
// cell is in flight — so one grep reconstructs a cell's lifecycle
// across both processes.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zccloud/cmd/internal/harness"
	"zccloud/internal/experiments"
	"zccloud/internal/fleet"
	"zccloud/internal/obs"
	"zccloud/internal/retryhttp"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintf(os.Stderr, "zccagent: %v\n", err)
		os.Exit(1)
	}
}

// slot is one held lease: the grant plus the lost flag the heartbeat
// loop flips when the control plane fences its token.
type slot struct {
	grant fleet.Grant
	lost  atomic.Bool
}

// bootSeq distinguishes agent instances sharing one process (tests).
var bootSeq atomic.Int64

// agent is one worker's client state against the control plane.
type agent struct {
	server   string
	name     string
	parallel int
	boot     string // per-instance nonce keeping request IDs globally unique
	rc       *retryhttp.Client
	log      *obs.Logger

	mu      sync.Mutex
	id      string // control-plane identity; changes on re-register
	hbEvery time.Duration
	slots   map[int64]*slot // held leases keyed by fencing token
	rng     *rand.Rand

	reqSeq atomic.Int64

	// draining is set by SIGTERM (agent drain) or a draining reply from
	// the control plane; either way every in-flight cell stops at its
	// next event boundary and is released rather than completed.
	draining atomic.Bool
	// reregister asks the claim loop to re-register before continuing
	// (the control plane forgot us: restart or reap).
	reregister atomic.Bool
}

// run is the testable agent body. ready (optional) receives the agent
// ID once registered; stop (optional) triggers the same path as
// SIGTERM.
func run(args []string, stderr io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("zccagent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server      = fs.String("server", "http://127.0.0.1:8421", "zccd control-plane base URL")
		name        = fs.String("name", "", "agent name reported at registration (default: hostname)")
		parallel    = fs.Int("parallel", 1, "cells to execute concurrently (leases held at once)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "idle claim-poll interval (jittered)")
		connectWait = fs.Duration("connect-wait", 30*time.Second, "how long to keep retrying the initial registration")
		httpTimeout = fs.Duration("http-timeout", 10*time.Second, "per-attempt HTTP timeout")
		maxRetryAft = fs.Duration("max-retry-after", 2*time.Minute, "cap on an honored server Retry-After hint (power-aware servers emit window-scale waits)")
		logLevel    = fs.String("log-level", "info", "log threshold: debug, info, warn, or error")
		logFormat   = fs.String("log-format", "logfmt", "log line encoding: logfmt or json")
		quiet       = fs.Bool("quiet", false, "suppress operational log lines")
		version     = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stderr, "zccagent", obs.BuildInfo())
		return nil
	}
	if *name == "" {
		h, err := os.Hostname()
		if err != nil {
			h = "zccagent"
		}
		*name = h
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1 (got %d)", *parallel)
	}

	if *quiet {
		*logLevel = ""
	}
	logger, err := harness.Logger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	a := &agent{
		server:   *server,
		name:     *name,
		parallel: *parallel,
		log:      logger,
		slots:    make(map[int64]*slot),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	a.boot = fmt.Sprintf("%x.%x.%04x", os.Getpid(), bootSeq.Add(1), a.rng.Uint32()&0xffff)
	a.rc = &retryhttp.Client{
		HTTP:          &http.Client{Timeout: *httpTimeout},
		Sleep:         a.retrySleep,
		Log:           logger,
		MaxRetryAfter: *maxRetryAft,
	}
	if err := a.registerWithRetry(*connectWait); err != nil {
		return err
	}
	if ready != nil {
		ready <- a.agentID()
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		select {
		case sig := <-sigc:
			a.alog().Info("draining", "signal", sig.String())
		case <-func() <-chan struct{} {
			if stop != nil {
				return stop
			}
			return make(chan struct{})
		}():
			a.alog().Info("draining", "signal", "stop requested")
		}
		a.draining.Store(true)
	}()

	hbDone := make(chan struct{})
	hbStop := make(chan struct{})
	go a.heartbeatLoop(hbStop, hbDone)

	err = a.claimLoop(*poll)

	close(hbStop)
	<-hbDone
	a.deregister()
	a.alog().Info("drained; exiting")
	return err
}

// alog is the agent's identity-bound logger.
func (a *agent) alog() *obs.Logger { return a.log.With("agent_id", a.agentID()) }

func (a *agent) agentID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.id
}

// heldTokens snapshots every lease the agent currently holds, for the
// heartbeat body.
func (a *agent) heldTokens() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	tokens := make([]int64, 0, len(a.slots))
	for tok := range a.slots {
		tokens = append(tokens, tok)
	}
	return tokens
}

// markLost flags a held lease (or, with token 0, every held lease) so
// its cell stops at the next event boundary and its result is dropped.
func (a *agent) markLost(token int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for tok, sl := range a.slots {
		if token == 0 || tok == token {
			sl.lost.Store(true)
		}
	}
}

// nextReqID derives the per-logical-request correlation ID: it rides
// every retry attempt of the request as both the control plane's log
// key and its idempotency key. The boot nonce keeps IDs unique across
// agents that cannot be told apart by agent ID alone — several
// processes registering at once (none has an ID yet), or stale IDs
// reissued by a restarted control plane; without it, one agent's
// registration could be answered from another's idempotency-cache
// entry, fusing their identities.
func (a *agent) nextReqID() string {
	id := a.agentID()
	if id == "" {
		id = "unregistered"
	}
	return fmt.Sprintf("%s-%s-r%06d", id, a.boot, a.reqSeq.Add(1))
}

// retrySleep is the retryhttp wait hook: jitter-free (the policy
// already jitters), waking early and aborting when the agent drains so
// a retry loop never outlives a SIGTERM.
func (a *agent) retrySleep(d time.Duration) bool {
	const step = 50 * time.Millisecond
	for waited := time.Duration(0); waited < d; waited += step {
		if a.draining.Load() {
			return false
		}
		time.Sleep(step)
	}
	return !a.draining.Load()
}

// doJSON issues one logical JSON request under the unified retry
// policy. Returns the definitive HTTP status (0 on exhausted transport
// errors or drain-abort).
func (a *agent) doJSON(method, path string, in, out any) (int, error) {
	return a.rc.DoJSON(method, a.server+path, a.nextReqID(), in, out)
}

// register introduces the agent; the reply fixes its identity and
// cadence.
func (a *agent) register() error {
	var view fleet.AgentView
	code, err := a.doJSON("POST", "/v1/agents", map[string]string{"name": a.name}, &view)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("register: HTTP %d", code)
	}
	hb := time.Duration(view.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = 2 * time.Second
	}
	a.mu.Lock()
	a.id = view.ID
	a.hbEvery = hb
	a.mu.Unlock()
	a.alog().Info("registered", "agent", a.name, "server", a.server,
		"heartbeat", hb, "lease", time.Duration(view.LeaseMS)*time.Millisecond)
	return nil
}

// registerWithRetry keeps trying until the control plane answers or the
// wait budget runs out — agents routinely start before the daemon. A
// zero wait means forever: a running agent severed from a restarting
// control plane re-attaches whenever the daemon comes back, however
// long that takes. Both forms abort on drain.
func (a *agent) registerWithRetry(wait time.Duration) error {
	var deadline time.Time
	if wait > 0 {
		deadline = time.Now().Add(wait)
	}
	delay := 200 * time.Millisecond
	for {
		err := a.register()
		if err == nil {
			return nil
		}
		if a.draining.Load() {
			return nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("registering with %s: %w", a.server, err)
		}
		a.log.Warn("register failed; retrying", "err", err.Error(), "backoff", delay)
		a.sleep(delay)
		if delay *= 2; delay > 5*time.Second {
			delay = 5 * time.Second
		}
	}
}

// heartbeatLoop renews every held lease on the cadence the control
// plane asked for. A lost-token reply interrupts that cell; an
// unknown-agent reply (reap, or a control-plane restart that fenced
// every pre-crash token) interrupts all of them and schedules a
// re-registration; a draining reply stops new claims and releases the
// in-flight cells.
func (a *agent) heartbeatLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	a.mu.Lock()
	every := a.hbEvery
	a.mu.Unlock()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		id := a.agentID()
		var rep fleet.HeartbeatReply
		code, err := a.doJSON("POST", "/v1/agents/"+id+"/heartbeat",
			map[string][]int64{"tokens": a.heldTokens()}, &rep)
		switch {
		case err != nil:
			a.alog().Warn("heartbeat failed", "err", err.Error())
		case code == http.StatusNotFound:
			// Reaped, or the daemon restarted and fenced every pre-crash
			// token: our leases are gone. Drop the cells, get a new
			// identity.
			a.alog().Warn("unknown to control plane; dropping leases and re-registering")
			a.markLost(0)
			a.reregister.Store(true)
		case code != http.StatusOK:
			a.alog().Warn("heartbeat rejected", "status", code)
		default:
			for _, lost := range rep.Lost {
				if lost != 0 {
					a.alog().Warn("lease lost; stopping cell", "token", lost)
					a.markLost(lost)
				}
			}
			if rep.Draining {
				a.draining.Store(true)
			}
		}
	}
}

// labPool hands out Labs for the sweep currently being executed. Cells
// of one sweep share derived artifacts (scaled traces, the SP
// analysis), but a Lab is single-threaded — so the pool keeps one free
// list per fingerprint and each in-flight cell checks a Lab out
// exclusively, building a fresh one only when all are busy. Only the
// latest fingerprint's Labs are kept: sweeps run mostly one at a time.
type labPool struct {
	mu   sync.Mutex
	fp   string
	free []*experiments.Lab
}

func (p *labPool) get(fp string, opt experiments.Options) *experiments.Lab {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fp != fp {
		p.fp = fp
		p.free = nil
	}
	if n := len(p.free); n > 0 {
		lab := p.free[n-1]
		p.free = p.free[:n-1]
		return lab
	}
	return experiments.NewLab(opt)
}

func (p *labPool) put(fp string, lab *experiments.Lab) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fp == fp {
		p.free = append(p.free, lab)
	}
}

// claimLoop pulls cells and dispatches them to up to parallel
// concurrent executors until draining. Idle polls are jittered so a
// fleet of agents does not beat on the control plane in phase; the
// loop blocks (drain-aware) while all executor seats are busy.
func (a *agent) claimLoop(poll time.Duration) error {
	labs := &labPool{}
	seats := make(chan struct{}, a.parallel)
	var wg sync.WaitGroup
	defer wg.Wait() // every in-flight cell reports before deregister
	for !a.draining.Load() {
		if a.reregister.CompareAndSwap(true, false) {
			// Retry forever: an agent that outlives a control-plane
			// restart must re-attach, not die. Only drain stops it.
			if err := a.registerWithRetry(0); err != nil {
				return err
			}
			continue
		}
		if !a.acquireSeat(seats) {
			break
		}
		var grant fleet.Grant
		code, err := a.doJSON("POST", "/v1/cells/claim", map[string]string{"agent": a.agentID()}, &grant)
		switch {
		case err != nil:
			<-seats
			a.alog().Warn("claim failed", "err", err.Error())
			a.sleep(4 * poll)
			continue
		case code == http.StatusNoContent:
			<-seats
			a.sleep(poll)
			continue
		case code == http.StatusNotFound:
			<-seats
			a.reregister.Store(true)
			continue
		case code != http.StatusOK:
			// Retryable statuses (429/503 with their Retry-After hints)
			// were already waited out inside the retry policy; whatever
			// surfaces here is just "not now".
			<-seats
			a.alog().Warn("claim rejected", "status", code)
			a.sleep(4 * poll)
			continue
		}
		lab := labs.get(grant.Fingerprint, grant.Options)
		wg.Add(1)
		go func(lab *experiments.Lab, grant fleet.Grant) {
			defer wg.Done()
			defer func() { <-seats }()
			a.runCell(lab, grant)
			labs.put(grant.Fingerprint, lab)
		}(lab, grant)
	}
	return nil
}

// acquireSeat blocks until an executor seat frees up, polling the
// drain flag so a stop request is never stuck behind a slow cell.
func (a *agent) acquireSeat(seats chan struct{}) bool {
	for {
		select {
		case seats <- struct{}{}:
			return true
		case <-time.After(50 * time.Millisecond):
			if a.draining.Load() {
				return false
			}
		}
	}
}

// runCell executes one granted cell and reports its outcome: complete
// on a terminal record, release on a voluntary stop, drop on a lost
// lease.
func (a *agent) runCell(lab *experiments.Lab, grant fleet.Grant) {
	e, err := experiments.ByID(grant.Cell)
	if err != nil {
		// A cell we cannot run (version skew): report it as an error
		// attempt so the control plane retries elsewhere or abandons.
		a.complete(grant, experiments.CellRecord{
			ID: grant.Cell, Status: experiments.CellError,
			Error: fmt.Sprintf("agent %s: %v", a.agentID(), err),
		})
		return
	}
	sl := &slot{grant: grant}
	a.mu.Lock()
	a.slots[grant.Token] = sl
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.slots, grant.Token)
		a.mu.Unlock()
	}()
	clog := a.alog().With("run_id", grant.Sweep, "cell", grant.Cell, "token", grant.Token)
	clog.Info("cell start", "attempt_deadline_ms", grant.DeadlineMS)
	lab.SetObs(obs.Options{
		RunID: grant.Sweep,
		Log:   a.log,
		Interrupt: func() bool {
			return a.draining.Load() || sl.lost.Load()
		},
	})
	rec, interrupted := experiments.ExecuteCell(lab, e)
	switch {
	case interrupted && sl.lost.Load():
		clog.Warn("cell dropped: lease lost mid-run", "elapsed_ms", rec.ElapsedMS)
	case interrupted:
		clog.Info("cell released: draining", "elapsed_ms", rec.ElapsedMS)
		a.release(grant)
	default:
		clog.Info("cell finished", "status", rec.Status, "elapsed_ms", rec.ElapsedMS)
		a.complete(grant, rec)
	}
}

// complete reports a terminal record; the retry policy absorbs
// transient failures and replays through the server's idempotency
// cache. A 409 means the fencing token went stale — the cell was
// requeued — and the result is discarded by design.
func (a *agent) complete(grant fleet.Grant, rec experiments.CellRecord) {
	body := struct {
		Agent  string                 `json:"agent"`
		Sweep  string                 `json:"sweep"`
		Cell   string                 `json:"cell"`
		Token  int64                  `json:"token"`
		Record experiments.CellRecord `json:"record"`
	}{a.agentID(), grant.Sweep, grant.Cell, grant.Token, rec}
	clog := a.alog().With("run_id", grant.Sweep, "cell", grant.Cell, "token", grant.Token)
	code, err := a.doJSON("POST", "/v1/cells/complete", body, nil)
	switch {
	case err == nil && code == http.StatusOK:
	case code == http.StatusConflict:
		clog.Warn("result fenced off (cell requeued elsewhere); discarding")
	default:
		clog.Error("completion lost after retries", "status", code, "err", errString(err))
	}
}

// release parks the in-flight cell back on the queue front (agent
// drain). Best-effort: a stale token means it was already requeued.
func (a *agent) release(grant fleet.Grant) {
	body := struct {
		Agent string `json:"agent"`
		Sweep string `json:"sweep"`
		Cell  string `json:"cell"`
		Token int64  `json:"token"`
	}{a.agentID(), grant.Sweep, grant.Cell, grant.Token}
	code, err := a.doJSON("POST", "/v1/cells/release", body, nil)
	if err != nil || code != http.StatusOK {
		a.alog().Warn("release failed", "run_id", grant.Sweep, "cell", grant.Cell,
			"status", code, "err", errString(err))
	}
}

// deregister tells the control plane we are leaving; best-effort.
func (a *agent) deregister() {
	id := a.agentID()
	if id == "" {
		return
	}
	if _, err := a.doJSON("DELETE", "/v1/agents/"+id, nil, nil); err != nil {
		a.alog().Warn("deregister failed", "err", err.Error())
	}
}

// sleep waits with ±25% jitter, waking early when draining.
func (a *agent) sleep(d time.Duration) {
	a.mu.Lock()
	f := a.rng.Float64()
	a.mu.Unlock()
	d = time.Duration(float64(d) * (0.75 + 0.5*f))
	const step = 50 * time.Millisecond
	for waited := time.Duration(0); waited < d; waited += step {
		if a.draining.Load() {
			return
		}
		time.Sleep(step)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

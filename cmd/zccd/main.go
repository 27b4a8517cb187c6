// Command zccd is the long-running zccloud simulation service: submit
// simulation or experiment specs over HTTP, poll their status, cancel
// them, and scrape service metrics.
//
//	zccd -addr 127.0.0.1:8421 -workers 4 -queue 32 -data /var/lib/zccd
//
//	curl -XPOST localhost:8421/v1/runs -d '{"days": 7, "zc_factor": 1}'
//	curl localhost:8421/v1/runs/r-000001
//	curl -XDELETE localhost:8421/v1/runs/r-000001
//
// Admission is bounded: a full queue sheds with 429 + Retry-After
// rather than buffering without limit. SIGINT/SIGTERM drains the
// service gracefully — admission stops (503), queued runs are
// cancelled, in-flight runs get -drain-grace to finish before being
// parked as resumable checkpoints under -data (zccsim -restore accepts
// the snapshot files too), and the HTTP server shuts down with a
// deadline. A clean drain exits 0. -data/runs.jsonl journals every run
// with its spec: a zccd restarted on the same -data, after a drain or
// a crash, re-adopts every run not done, failed or cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strconv"
	"strings"

	"zccloud/cmd/internal/harness"
	"zccloud/internal/admit"
	"zccloud/internal/fleet"
	"zccloud/internal/forecast"
	"zccloud/internal/obs"
	"zccloud/internal/serve"
	"zccloud/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintf(os.Stderr, "zccd: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable daemon body. ready (optional) receives the bound
// address once the API is listening; stop (optional) triggers the same
// path as SIGTERM.
func run(args []string, stderr io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("zccd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8421", "HTTP listen address")
		workers     = fs.Int("workers", 2, "concurrent run executors")
		queue       = fs.Int("queue", 16, "admission queue depth; beyond it submissions are shed with 429")
		runTimeout  = fs.Duration("run-deadline", 10*time.Minute, "per-run wall-clock deadline (specs may tighten it)")
		drainGrace  = fs.Duration("drain-grace", 10*time.Second, "how long in-flight runs may keep running after a shutdown signal before being checkpointed")
		httpTimeout = fs.Duration("http-shutdown", 5*time.Second, "deadline for the HTTP server to finish in-flight requests on shutdown")
		dataDir     = fs.String("data", "", "directory for the run journal and drain checkpoints (empty = no persistence)")
		logLevel    = fs.String("log-level", "info", "log threshold: debug, info, warn, or error")
		logFormat   = fs.String("log-format", "logfmt", "log line encoding: logfmt or json")
		sampleEvery = fs.Duration("sample-interval", time.Second, "period of the /v1/timeseries sampler")
		sampleKeep  = fs.Int("sample-window", 600, "samples retained by /v1/timeseries")
		quiet       = fs.Bool("quiet", false, "suppress operational log lines")
		version     = fs.Bool("version", false, "print build information and exit")

		powerTrace   = fs.String("power-trace", "", "stranded-power schedule enabling renewable-aware admission: a windows CSV (start,end[,frac] in seconds), a MISO market CSV, or a recorded event trace (.zct/.jsonl); empty disables power admission")
		powerModel   = fs.String("power-model", "NetPrice0", "power: SP model applied to a market-CSV schedule (LMP<x> or NetPrice<x>)")
		powerSite    = fs.Int("power-site", -1, "power: market-CSV site (-1 = best duty factor)")
		powerMinMW   = fs.Float64("power-min-mw", 0, "power: minimum offered MW for a market interval to count as SP")
		powerPolicy  = fs.String("power-policy", "shed", "power: degrade mode for infeasible submissions — shed (429 + Retry-After) or park (accept degraded, resume when the window opens)")
		powerHorizon = fs.Float64("power-horizon", 0, "power: replay the schedule periodically with this period in schedule seconds (0 = play once)")
		powerSpeed   = fs.Float64("power-speed", 1, "power: schedule seconds per wall second (time compression for replayed schedules)")
		powerPredict = fs.String("power-predict", "oracle", "power: window-end forecast — oracle (scheduled ends), median, p<NN> (hazard quantile), or fixed:<seconds>")
		powerSafety  = fs.Float64("power-safety", admit.DefaultSafety, "power: cost-estimate safety factor")
		powerGuard   = fs.Duration("power-guard", 0, "power: wall-clock lead before a window's predicted end at which running simulations are preemptively checkpointed (0 = off)")
		powerNeedDL  = fs.Bool("power-require-deadline", false, "power: reject submissions without deadline_seconds (400) while power admission is active")
		powerTick    = fs.Duration("power-tick", 250*time.Millisecond, "power: envelope sampling period")

		leaseTTL   = fs.Duration("lease-ttl", 15*time.Second, "fleet: how long a granted sweep cell stays valid between heartbeat renewals")
		agentTTL   = fs.Duration("agent-ttl", 10*time.Second, "fleet: how long an agent may miss heartbeats before it is reaped and its cells requeued")
		fleetRetry = fs.Int("fleet-retry-limit", 3, "fleet: involuntary requeues per cell before it is abandoned")
		fleetBack  = fs.Duration("fleet-backoff", time.Second, "fleet: base of the exponential full-jitter requeue backoff")
		fleetCap   = fs.Duration("fleet-backoff-cap", time.Minute, "fleet: cap on the pre-jitter requeue backoff")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stderr, "zccd", obs.BuildInfo())
		return nil
	}

	if *quiet {
		*logLevel = ""
	}
	logger, err := harness.Logger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	powerCfg, err := buildPowerConfig(powerFlags{
		trace: *powerTrace, model: *powerModel, site: *powerSite, minMW: *powerMinMW,
		policy: *powerPolicy, horizon: *powerHorizon, speed: *powerSpeed,
		predict: *powerPredict, safety: *powerSafety, guard: *powerGuard,
		requireDeadline: *powerNeedDL,
	})
	if err != nil {
		return err
	}
	if powerCfg.Envelope != nil {
		logger.Info("power admission enabled", "trace", *powerTrace,
			"windows", len(powerCfg.Envelope.Windows()), "policy", string(powerCfg.Policy),
			"predict", *powerPredict, "horizon_s", *powerHorizon, "speed", *powerSpeed)
	}

	srv, err := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		RunTimeout:     *runTimeout,
		DataDir:        *dataDir,
		Log:            logger,
		SampleInterval: *sampleEvery,
		SampleWindow:   *sampleKeep,
		Power:          powerCfg,
		PowerTick:      *powerTick,
		Fleet: fleet.Config{
			LeaseTTL:   *leaseTTL,
			AgentTTL:   *agentTTL,
			RetryLimit: *fleetRetry,
			Backoff:    *fleetBack,
			BackoffCap: *fleetCap,
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String(), "workers", *workers, "queue", *queue)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
	case <-func() <-chan struct{} {
		if stop != nil {
			return stop
		}
		return make(chan struct{}) // never fires
	}():
		logger.Info("draining", "signal", "stop requested")
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}

	// Drain order matters: runs first — the API stays up so clients can
	// watch their runs settle — then the HTTP server.
	graceCtx, cancelGrace := context.WithTimeout(context.Background(), *drainGrace)
	defer cancelGrace()
	drainErr := srv.Drain(graceCtx)

	shutCtx, cancelShut := context.WithTimeout(context.Background(), *httpTimeout)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
		if drainErr == nil {
			drainErr = fmt.Errorf("http shutdown: %w", err)
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return drainErr
	}
	logger.Info("drained; exiting")
	return nil
}

// powerFlags collects the -power-* flags for buildPowerConfig.
type powerFlags struct {
	trace, model, policy, predict string
	site                          int
	minMW, horizon, speed, safety float64
	guard                         time.Duration
	requireDeadline               bool
}

// buildPowerConfig loads the stranded-power schedule and assembles the
// renewable-aware admission config. An empty -power-trace disables
// power admission entirely (zero Config).
func buildPowerConfig(pf powerFlags) (admit.Config, error) {
	if pf.trace == "" {
		return admit.Config{}, nil
	}
	model, err := admit.ParseModel(pf.model)
	if err != nil {
		return admit.Config{}, err
	}
	wins, err := admit.LoadSchedule(pf.trace, admit.LoadOptions{Model: model, Site: pf.site, MinMW: pf.minMW})
	if err != nil {
		return admit.Config{}, err
	}
	if len(wins) == 0 {
		return admit.Config{}, fmt.Errorf("power trace %s yields no stranded-power windows", pf.trace)
	}
	pred, err := buildPredictor(pf.predict, wins)
	if err != nil {
		return admit.Config{}, err
	}
	pol, err := admit.ParsePolicy(pf.policy)
	if err != nil {
		return admit.Config{}, err
	}
	env, err := admit.NewEnvelope(wins, sim.Duration(pf.horizon), pred)
	if err != nil {
		return admit.Config{}, err
	}
	return admit.Config{
		Envelope:        env,
		Clock:           admit.Clock{Speed: pf.speed},
		Policy:          pol,
		Safety:          pf.safety,
		Guard:           pf.guard,
		RequireDeadline: pf.requireDeadline,
	}, nil
}

// buildPredictor parses -power-predict: "oracle" trusts scheduled
// window ends, "median"/"p<NN>" train a hazard predictor on the
// schedule's own window lengths, "fixed:<seconds>" predicts a constant
// duration (the knob soak tests use to inject forecast error).
func buildPredictor(spec string, wins []admit.Window) (admit.Predictor, error) {
	switch {
	case spec == "" || spec == "oracle":
		return nil, nil
	case spec == "median":
		return forecast.Median(admit.Durations(wins))
	case strings.HasPrefix(spec, "p"):
		pct, err := strconv.Atoi(spec[1:])
		if err != nil || pct <= 0 || pct >= 100 {
			return nil, fmt.Errorf("power predictor %q: want p<1..99>", spec)
		}
		return forecast.NewHazard(admit.Durations(wins), float64(pct)/100)
	case strings.HasPrefix(spec, "fixed:"):
		sec, err := strconv.ParseFloat(spec[len("fixed:"):], 64)
		if err != nil || sec <= 0 {
			return nil, fmt.Errorf("power predictor %q: want fixed:<seconds>", spec)
		}
		return forecast.Fixed{Duration: sim.Duration(sec)}, nil
	}
	return nil, fmt.Errorf("power predictor %q: want oracle, median, p<NN>, or fixed:<seconds>", spec)
}

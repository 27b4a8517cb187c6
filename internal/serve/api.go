package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"zccloud/internal/obs"
)

// maxSpecBytes bounds a submitted spec body; anything larger is
// malformed by definition.
const maxSpecBytes = 1 << 20

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/runs                 submit a Spec        → 202 RunInfo
//	GET    /v1/runs                 list runs            → 200 [RunInfo]
//	GET    /v1/runs/{id}            one run's status     → 200 RunInfo
//	DELETE /v1/runs/{id}            cancel a run         → 202 RunInfo
//	POST   /v1/sweeps               submit a SweepSpec   → 202 SweepView
//	GET    /v1/sweeps               list sweeps          → 200 [SweepView]
//	GET    /v1/sweeps/{id}          one sweep's cells    → 200 SweepView
//	POST   /v1/agents               register an agent    → 200 AgentView
//	GET    /v1/agents               list live agents     → 200 [AgentStatus]
//	POST   /v1/agents/{id}/heartbeat renew leases        → 200 HeartbeatReply
//	DELETE /v1/agents/{id}          graceful deregister  → 200
//	POST   /v1/cells/claim          pull a cell lease    → 200 Grant, or 204
//	POST   /v1/cells/complete       submit a cell record → 200, or 409 stale token
//	POST   /v1/cells/release        park a cell back     → 200, or 409 stale token
//	GET    /status                  live server state    → 200 StatusSnapshot
//	GET    /v1/timeseries           recent sample ring   → 200 TimeSeriesSnapshot
//	GET    /healthz                 liveness             → 200, or 503 draining
//	GET    /metrics                 Prometheus text
//
// Submit maps admission outcomes to statuses: malformed or invalid
// specs → 400, queue full → 429 with a Retry-After derived from the
// observed drain rate (jittered so shed clients spread out), draining
// → 503, and a journal that cannot record the run → 503 with a
// Retry-After no longer than the journal breaker's cooldown.
//
// Every response carries an X-Request-ID header — a client-supplied one
// is honored, so an agent's request IDs thread through control-plane
// logs — and every request is logged at debug level under that req_id,
// with the run_id bound too when the path names a run, so a run's API
// history greps out by either key.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	// Fleet mutations are idempotent under a client-supplied
	// X-Request-ID: a retried request whose first execution already
	// produced a definitive answer gets that answer replayed, so agents
	// retrying through a flaky network never double-claim or
	// double-complete.
	mux.HandleFunc("POST /v1/agents", s.idempotent(s.handleAgentRegister))
	mux.HandleFunc("GET /v1/agents", s.handleAgentList)
	mux.HandleFunc("POST /v1/agents/{id}/heartbeat", s.idempotent(s.handleAgentHeartbeat))
	mux.HandleFunc("DELETE /v1/agents/{id}", s.idempotent(s.handleAgentDeregister))
	mux.HandleFunc("POST /v1/cells/claim", s.idempotent(s.handleCellClaim))
	mux.HandleFunc("POST /v1/cells/complete", s.idempotent(s.handleCellComplete))
	mux.HandleFunc("POST /v1/cells/release", s.idempotent(s.handleCellRelease))
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /v1/timeseries", s.handleTimeseries)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.withRequestID(mux)
}

// reqLogKey carries the request-scoped logger (req_id bound) through
// the request context to handlers that want to log under it.
type reqLogKey struct{}

// reqLog returns the request's correlation-bound logger; outside the
// middleware (tests calling handlers directly) it falls back to the
// server logger.
func (s *Server) reqLog(r *http.Request) *obs.Logger {
	if l, ok := r.Context().Value(reqLogKey{}).(*obs.Logger); ok {
		return l
	}
	return s.log
}

// validRequestID accepts client-supplied correlation IDs that are safe
// to echo into headers and logfmt: short, and alphanumeric plus ./_-.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// withRequestID stamps each request with a correlation ID — honoring a
// valid client-supplied X-Request-ID, so agent-originated IDs carry
// through control-plane logs — and emits the debug-level request line.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if !validRequestID(reqID) {
			reqID = fmt.Sprintf("q-%08d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", reqID)
		if !s.log.Enabled(obs.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		l := s.log.With("req_id", reqID)
		if runID, ok := strings.CutPrefix(r.URL.Path, "/v1/runs/"); ok && runID != "" {
			l = l.With("run_id", runID)
		}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqLogKey{}, l)))
		l.Debug("request", "method", r.Method, "path", r.URL.Path, "dur", time.Since(start))
	})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed spec: " + err.Error()})
		return
	}
	info, err := s.Submit(spec)
	var shed *PowerShedError
	switch {
	case errors.Is(err, ErrQueueFull):
		// The hint tracks the observed drain rate (EWMA of exec time
		// over the worker pool) with jitter, so shed clients neither
		// hammer a busy server every second nor stampede back in
		// lockstep when a slot finally frees.
		w.Header().Set("Retry-After", strconv.Itoa(s.drainRetryAfter()))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.As(err, &shed):
		// Power-infeasible: the hint is the wall-clock wait until the
		// next predicted stranded-power window (same jitter/clamp path
		// as the drain-rate hint, but its own, much higher, cap).
		w.Header().Set("Retry-After", strconv.Itoa(s.powerRetryAfter(shed.RetryAfter)))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case errors.Is(err, ErrJournalUnavailable):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint(journalCooldown.Seconds(), 1, int(journalCooldown.Seconds()))))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, info)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: ErrNotFound.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, apiError{Error: ErrNotFound.Error()})
	case errors.Is(err, ErrTerminal):
		writeJSON(w, http.StatusConflict, info)
	default:
		writeJSON(w, http.StatusAccepted, info)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.Status()
	snap := obs.StatusSnapshot{
		Build:     obs.BuildInfo(),
		UptimeSec: time.Since(s.started).Seconds(),
		Serve:     &st,
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.ts.Snapshot().WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "time": time.Now().UTC().Format(time.RFC3339)})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scope.Gauge("journal_dropped_records").SetMax(float64(s.JournalDropped()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, s.reg.Snapshot())
}

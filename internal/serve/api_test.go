package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"zccloud/internal/core"
	"zccloud/internal/sched"
)

func newAPIServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestAPISubmitAndStatus(t *testing.T) {
	_, ts := newAPIServer(t, Config{Workers: 2})
	resp, body := doJSON(t, "POST", ts.URL+"/v1/runs", `{"days": 2, "mira_nodes": 4096}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var info RunInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if info.ID == "" {
		t.Fatal("no run id assigned")
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = doJSON(t, "GET", ts.URL+"/v1/runs/"+info.ID, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET = %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck in %s", info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.State != StateDone || info.Metrics == nil {
		t.Fatalf("final: %s (%s), metrics %v", info.State, info.Error, info.Metrics != nil)
	}

	resp, body = doJSON(t, "GET", ts.URL+"/v1/runs", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), info.ID) {
		t.Fatalf("list = %d %s", resp.StatusCode, body)
	}
}

func TestAPIMalformedSpec(t *testing.T) {
	_, ts := newAPIServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{not json`,
		`{"days": "tuesday"}`,
		`{"no_such_field": 1}`,
		`{"days": -3}`,
	} {
		resp, rb := doJSON(t, "POST", ts.URL+"/v1/runs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q = %d (%s), want 400", body, resp.StatusCode, rb)
		}
		var ae apiError
		if err := json.Unmarshal(rb, &ae); err != nil || ae.Error == "" {
			t.Errorf("POST %q: error body %q not JSON apiError", body, rb)
		}
	}
}

func TestAPIQueueFull429(t *testing.T) {
	s, ts := newAPIServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	defer close(block)
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		select {
		case <-block:
			return &core.Metrics{Completed: 1}, nil
		case <-ctx.Done():
			return nil, &core.Interrupted{Snapshot: &sched.Snapshot{}}
		}
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/runs", `{}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST 1 = %d: %s", resp.StatusCode, body)
	}
	var first RunInfo
	json.Unmarshal(body, &first)
	for {
		if info, _ := s.Get(first.ID); info.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/runs", `{}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST 2 = %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/runs", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST 3 = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestAPIJournalUnavailable503: a submission the run journal cannot
// record is refused with 503 and a Retry-After within the journal
// breaker's cooldown — before the breaker opens and while it is open.
func TestAPIJournalUnavailable503(t *testing.T) {
	s, ts := newAPIServer(t, Config{Workers: 1})
	s.journal.mu.Lock()
	s.journal.app = &brokenAppender{}
	s.journal.retry.Sleep = func(time.Duration) {}
	s.journal.mu.Unlock()
	for i := 0; i < 5; i++ {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/runs", `{}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %d = %d: %s, want 503", i, resp.StatusCode, body)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 || time.Duration(ra)*time.Second > journalCooldown {
			t.Fatalf("POST %d Retry-After = %q, want 1..%v", i, resp.Header.Get("Retry-After"), journalCooldown)
		}
	}
	if runs := s.List(); len(runs) != 0 {
		t.Fatalf("refused submissions registered %d runs", len(runs))
	}
}

func TestAPICancelFlow(t *testing.T) {
	s, ts := newAPIServer(t, Config{Workers: 1})
	started := make(chan struct{})
	s.execHook = func(ctx context.Context, sp Spec) (*core.Metrics, error) {
		close(started)
		<-ctx.Done()
		return nil, &core.Interrupted{Snapshot: &sched.Snapshot{}}
	}
	_, body := doJSON(t, "POST", ts.URL+"/v1/runs", `{}`)
	var info RunInfo
	json.Unmarshal(body, &info)
	<-started

	resp, body := doJSON(t, "DELETE", ts.URL+"/v1/runs/"+info.ID, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d: %s", resp.StatusCode, body)
	}
	final := waitTerminal(t, s, info.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	// A second cancel conflicts with the terminal state.
	resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/runs/"+info.ID, "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE = %d, want 409", resp.StatusCode)
	}
	// Unknown runs are 404 for both GET and DELETE.
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/runs/r-424242", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown = %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/runs/r-424242", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d", resp.StatusCode)
	}
}

func TestAPIHealthzAndMetrics(t *testing.T) {
	s, ts := newAPIServer(t, Config{Workers: 1})
	resp, body := doJSON(t, "GET", ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}
	if _, err := s.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}
	resp, body = doJSON(t, "GET", ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "zccloud_serve_runs_submitted") {
		t.Fatalf("metrics output missing serve counters:\n%s", body)
	}

	// Draining flips healthz to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
	resp, body = doJSON(t, "GET", ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining healthz = %d %s", resp.StatusCode, body)
	}
	// Submissions during drain are 503 too.
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/runs", `{}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
}

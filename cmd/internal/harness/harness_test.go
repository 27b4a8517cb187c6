package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zccloud/internal/experiments"
	"zccloud/internal/obs"
)

func TestLogger(t *testing.T) {
	if l, err := Logger(&bytes.Buffer{}, "", "no-such-format"); l != nil || err != nil {
		t.Errorf("empty level = %v, %v; want the nil logger", l, err)
	}
	if _, err := Logger(&bytes.Buffer{}, "loud", "logfmt"); err == nil {
		t.Error("an unknown level was accepted")
	}
	if _, err := Logger(&bytes.Buffer{}, "info", "xml"); err == nil {
		t.Error("an unknown format was accepted")
	}
	var buf bytes.Buffer
	l, err := Logger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept")
	if got := buf.String(); strings.Contains(got, "dropped") || !strings.Contains(got, `"msg":"kept"`) {
		t.Errorf("warn-level JSON logger wrote %q", got)
	}
}

// start parses args into the shared flags and starts a run on them.
func start(t *testing.T, args ...string) *Run {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	h, err := Start("test", f, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestFinishLandsOutputs: Finish renders the summaries and lands the
// trace and the -metrics snapshot; a run closed without Finish leaves
// no trace behind.
func TestFinishLandsOutputs(t *testing.T) {
	dir := t.TempDir()
	trace, metrics := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.json")
	h := start(t, "-trace", trace, "-metrics", metrics, "-spans", "-check", "-run-id", "r1")
	if h.Obs.Metrics == nil || h.Obs.Timings == nil || h.Obs.Tracer == nil || !h.Obs.Check || h.Obs.RunID != "r1" {
		t.Fatalf("obs options = %+v", h.Obs)
	}
	if h.Obs.Interrupt() || h.Interrupted() {
		t.Error("interrupted before any signal")
	}
	h.Obs.Tracer.Trace(obs.Event{Kind: obs.EvArrive, Job: 1})
	h.Obs.Metrics.Counter("run.simulations").Inc()
	var ids []string
	if err := h.Finish(func(tb *experiments.Table) { ids = append(ids, tb.ID) }); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ids, ","); got != "metrics,spans" {
		t.Errorf("rendered %s, want metrics,spans", got)
	}
	if data, err := os.ReadFile(trace); err != nil || !bytes.Contains(data, []byte(`"job":1`)) {
		t.Errorf("trace = %q, %v", data, err)
	}
	if data, err := os.ReadFile(metrics); err != nil || !bytes.Contains(data, []byte("run.simulations")) {
		t.Errorf("metrics = %q, %v", data, err)
	}
	if err := h.CommitTrace(); err != nil {
		t.Errorf("a second commit: %v", err)
	}

	aborted := filepath.Join(dir, "aborted.zct")
	start(t, "-trace", aborted).Close()
	if _, err := os.Stat(aborted); !os.IsNotExist(err) {
		t.Errorf("a run closed without Finish left its trace: %v", err)
	}
}

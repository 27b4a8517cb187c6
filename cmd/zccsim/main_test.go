package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunVersion(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-version"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "zccsim ") {
		t.Errorf("-version output = %q", out.String())
	}
}

// TestRunTraceDeterminism checks two same-seed zccsim runs emit
// byte-identical traces and metrics snapshots.
func TestRunTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation twice")
	}
	dir := t.TempDir()
	args := []string{"-days", "7", "-mira-nodes", "4096",
		"-zc-factor", "1", "-kill-requeue"}
	runOnce := func(tag string) (traceData, metricsData []byte, text string) {
		tp := filepath.Join(dir, tag+".jsonl")
		mp := filepath.Join(dir, tag+".json")
		var out, errw bytes.Buffer
		a := append(append([]string{}, args...), "-trace", tp, "-metrics", mp)
		if err := run(a, &out, &errw); err != nil {
			t.Fatalf("run %s: %v", tag, err)
		}
		var err error
		traceData, err = os.ReadFile(tp)
		if err != nil {
			t.Fatal(err)
		}
		metricsData, err = os.ReadFile(mp)
		if err != nil {
			t.Fatal(err)
		}
		return traceData, metricsData, out.String()
	}
	t1, m1, text := runOnce("a")
	t2, m2, _ := runOnce("b")
	if !bytes.Equal(t1, t2) {
		t.Error("same-seed traces differ")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("same-seed metrics snapshots differ")
	}
	if len(bytes.TrimSpace(t1)) == 0 {
		t.Fatal("trace is empty")
	}
	for i, line := range bytes.Split(bytes.TrimSpace(t1), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("trace line %d not JSON: %v", i+1, err)
		}
	}
	if !strings.Contains(text, "Telemetry summary") {
		t.Error("stdout missing telemetry summary table")
	}
	var snap map[string]any
	if err := json.Unmarshal(m1, &snap); err != nil {
		t.Fatalf("metrics snapshot not JSON: %v", err)
	}
}

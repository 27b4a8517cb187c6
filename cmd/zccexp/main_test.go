package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPresetName(t *testing.T) {
	if presetName(true) != "quick" || presetName(false) != "paper-scale" {
		t.Error("presetName wrong")
	}
}

func TestRunList(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig5", "fig7", "table1"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

func TestRunVersion(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-version"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "zccexp ") {
		t.Errorf("-version output = %q", out.String())
	}
}

func TestRunUnknownID(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-ids", "nope"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment id") {
		t.Fatalf("err = %v, want unknown experiment id", err)
	}
}

// TestRunTraceDeterminism is the CLI-level acceptance check: two
// same-seed runs must emit byte-identical traces and metrics snapshots.
func TestRunTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small experiment twice")
	}
	dir := t.TempDir()
	args := []string{"-quick", "-days", "7", "-mira-nodes", "4096", "-ids", "fig5"}
	runOnce := func(tag string) (traceData, metricsData []byte) {
		tp := filepath.Join(dir, tag+".jsonl")
		mp := filepath.Join(dir, tag+".json")
		var out, errw bytes.Buffer
		a := append(append([]string{}, args...), "-trace", tp, "-metrics", mp)
		if err := run(a, &out, &errw); err != nil {
			t.Fatalf("run %s: %v\nstderr: %s", tag, err, errw.String())
		}
		if !strings.Contains(out.String(), "Telemetry summary") {
			t.Errorf("output missing telemetry summary table")
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
		return traceData, metricsData
	}
	t1, m1 := runOnce("a")
	t2, m2 := runOnce("b")
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
	var snap map[string]any
	if err := json.Unmarshal(m1, &snap); err != nil {
		t.Fatalf("metrics snapshot not JSON: %v", err)
	}
	if _, ok := snap["counters"]; !ok {
		t.Error("metrics snapshot missing counters")
	}
}

func TestRunMarkdownIncludesMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small experiment")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.md")
	var errw bytes.Buffer
	err := run([]string{"-quick", "-days", "7", "-mira-nodes", "4096",
		"-ids", "fig5", "-markdown", "-o", out}, &bytes.Buffer{}, &errw)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	md := string(data)
	if !strings.Contains(md, "Telemetry summary") {
		t.Error("markdown output missing telemetry summary")
	}
	if !strings.Contains(md, "Jobs started") {
		t.Error("markdown output missing jobs-started row")
	}
}

// TestRunReportsFailedCellAtEnd: without -run-dir, a cell that fails
// (here its watchdog fires at once) is reported when the sweep ends,
// after the other cells' tables and the telemetry summary are rendered.
func TestRunReportsFailedCellAtEnd(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-quick", "-mira-nodes", "4096", "-ids", "fig5,table1",
		"-cell-timeout", "1ns"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "1 cell(s) failed (fig5)") {
		t.Fatalf("err = %v, want fig5 reported failed\nstderr: %s", err, errw.String())
	}
	if strings.Contains(err.Error(), "-resume") {
		t.Errorf("an unjournaled run hints at a resume: %v", err)
	}
	for _, want := range []string{"table1 — ", "Telemetry summary"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errw.String(), "fig5         timeout") {
		t.Errorf("stderr does not report fig5's timeout:\n%s", errw.String())
	}
}

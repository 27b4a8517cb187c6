package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"zccloud"
	"zccloud/internal/tracebin"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runCmd(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func checkGolden(t *testing.T, got, goldenPath string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
}

func TestSummaryGolden(t *testing.T) {
	out, _, err := runCmd(t, "summary", "testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, out, "testdata/summary.golden")
}

func TestSeriesGolden(t *testing.T) {
	out, _, err := runCmd(t, "series", "-step", "6h", "testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, out, "testdata/series.golden")
}

func TestWaitsGolden(t *testing.T) {
	out, _, err := runCmd(t, "waits", "testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, out, "testdata/waits.golden")
}

func TestHistAndTimelineRun(t *testing.T) {
	out, _, err := runCmd(t, "hist", "testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "arrive") || !strings.Contains(out, "window-up") {
		t.Errorf("hist output missing expected kinds:\n%s", out)
	}
	out, _, err = runCmd(t, "timeline", "-job", "2", "testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"arrive", "enqueue", "start", "finish"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if _, _, err := runCmd(t, "timeline", "-job", "99", "testdata/small.jsonl"); err == nil {
		t.Error("timeline of an absent job should fail")
	}
}

// TestGzipTransparent verifies every reader decompresses gzipped traces
// by content sniffing: same analysis output modulo the path in titles.
func TestGzipTransparent(t *testing.T) {
	raw, err := os.ReadFile("testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(t.TempDir(), "small.jsonl.gz")
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gzPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	plain, _, err := runCmd(t, "summary", "testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	zipped, _, err := runCmd(t, "summary", gzPath)
	if err != nil {
		t.Fatal(err)
	}
	plain = strings.ReplaceAll(plain, "testdata/small.jsonl", "TRACE")
	zipped = strings.ReplaceAll(zipped, gzPath, "TRACE")
	if plain != zipped {
		t.Errorf("gzip summary differs from plain:\n--- plain ---\n%s\n--- gzip ---\n%s", plain, zipped)
	}
}

func TestDiffIdentical(t *testing.T) {
	out, _, err := runCmd(t, "diff", "testdata/small.jsonl", "testdata/small.jsonl")
	if err != nil {
		t.Fatalf("identical traces should not diverge: %v", err)
	}
	if !strings.Contains(out, "traces identical: 16 events") {
		t.Errorf("unexpected diff output: %q", out)
	}
}

// TestDiffPerturbed flips one field mid-trace and checks diff names the
// exact first divergent event.
func TestDiffPerturbed(t *testing.T) {
	raw, err := os.ReadFile("testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	// Perturb line 8 (index 7): the backfill-start wait changes 100 -> 250.
	perturbed := strings.Replace(lines[7], `"detail":100`, `"detail":250`, 1)
	if perturbed == lines[7] {
		t.Fatalf("perturbation did not apply to %q", lines[7])
	}
	lines[7] = perturbed
	bPath := filepath.Join(t.TempDir(), "perturbed.jsonl")
	if err := os.WriteFile(bPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out, _, err := runCmd(t, "diff", "testdata/small.jsonl", bPath)
	if err == nil {
		t.Fatal("diff of perturbed trace should report divergence via a non-nil error")
	}
	if !strings.Contains(out, "diverge at event 7") {
		t.Errorf("diff should name event 7 as the first divergence:\n%s", out)
	}
	if !strings.Contains(out, "detail=100") || !strings.Contains(out, "detail=250") {
		t.Errorf("diff should show both versions of the event:\n%s", out)
	}
}

// TestDiffTruncated checks the shorter-trace case: divergence at the
// missing tail, reported as end-of-trace.
func TestDiffTruncated(t *testing.T) {
	raw, err := os.ReadFile("testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	bPath := filepath.Join(t.TempDir(), "short.jsonl")
	if err := os.WriteFile(bPath, []byte(strings.Join(lines[:len(lines)-2], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCmd(t, "diff", "testdata/small.jsonl", bPath)
	if err == nil {
		t.Fatal("truncated trace should diverge")
	}
	if !strings.Contains(out, "<end of trace>") {
		t.Errorf("diff should mark the shorter trace's end:\n%s", out)
	}
}

// zctTwin re-encodes a JSONL trace as .zct (with small blocks so the
// parallel scans see several) and returns the new path.
func zctTwin(t *testing.T, jsonlPath string, blockEvents int) string {
	t.Helper()
	f, err := os.Open(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := filepath.Join(t.TempDir(), "twin.zct")
	of, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	w := tracebin.NewWriterBlockSize(of, blockEvents)
	if err := zccloud.ReadAnyTrace(f, func(e zccloud.TraceEvent) error {
		w.Trace(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := of.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestZCTTransparent checks every subcommand reads a .zct trace and
// produces the same analysis as its JSONL twin.
func TestZCTTransparent(t *testing.T) {
	zct := zctTwin(t, "testdata/small.jsonl", 4)
	for _, args := range [][]string{
		{"summary"}, {"hist"}, {"series", "-step", "6h"}, {"waits"}, {"timeline", "-job", "2"},
	} {
		plain, _, err := runCmd(t, append(args, "testdata/small.jsonl")...)
		if err != nil {
			t.Fatalf("%v on jsonl: %v", args, err)
		}
		bin, _, err := runCmd(t, append(args, zct)...)
		if err != nil {
			t.Fatalf("%v on zct: %v", args, err)
		}
		plain = strings.ReplaceAll(plain, "testdata/small.jsonl", "TRACE")
		bin = strings.ReplaceAll(bin, zct, "TRACE")
		if plain != bin {
			t.Errorf("%v differs between formats:\n--- jsonl ---\n%s\n--- zct ---\n%s", args, plain, bin)
		}
	}
}

// TestParallelIdentical checks summary, hist, and series print the
// same bytes whether a multi-block .zct file is decoded on one core or
// four, and the same body (below the header line, which names the
// input) when the trace arrives on stdin through the streaming scan.
func TestParallelIdentical(t *testing.T) {
	zct := zctTwin(t, "testdata/small.jsonl", 3)
	for _, args := range [][]string{
		{"summary"}, {"summary", "-markdown"}, {"hist"}, {"series", "-step", "6h"},
	} {
		at := func(procs int) string {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			out, _, err := runCmd(t, append(args, zct)...)
			if err != nil {
				t.Fatalf("%v at GOMAXPROCS=%d: %v", args, procs, err)
			}
			return out
		}
		one, four := at(1), at(4)
		if one != four {
			t.Errorf("%v: GOMAXPROCS=4 output differs from GOMAXPROCS=1:\n--- 1 ---\n%s\n--- 4 ---\n%s", args, one, four)
		}

		f, err := os.Open(zct)
		if err != nil {
			t.Fatal(err)
		}
		stdin := os.Stdin
		os.Stdin = f
		piped, _, err := runCmd(t, append(args, "-")...)
		os.Stdin = stdin
		f.Close()
		if err != nil {
			t.Fatalf("%v on stdin: %v", args, err)
		}
		body := func(s string) string { return s[strings.Index(s, "\n")+1:] }
		if body(piped) != body(one) {
			t.Errorf("%v: stdin output differs from the file path's:\n--- stdin ---\n%s\n--- path ---\n%s", args, piped, one)
		}
	}
}

// TestSeriesStepRefused checks series refuses a sample step that is
// not positive instead of quietly sampling hourly.
func TestSeriesStepRefused(t *testing.T) {
	for _, step := range []string{"0", "-1h"} {
		if _, _, err := runCmd(t, "series", "-step", step, "testdata/small.jsonl"); err == nil || !strings.Contains(err.Error(), "-step must be positive") {
			t.Errorf("series -step %s: error %v, want a refusal", step, err)
		}
	}
}

// TestExportByteIdentical is the round-trip fidelity guarantee: a .zct
// trace exported to JSONL equals the original JSONL bytes exactly.
func TestExportByteIdentical(t *testing.T) {
	want, err := os.ReadFile("testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	zct := zctTwin(t, "testdata/small.jsonl", 4)

	out, _, err := runCmd(t, "export", zct)
	if err != nil {
		t.Fatalf("export to stdout: %v", err)
	}
	if out != string(want) {
		t.Errorf("export differs from the original JSONL:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}

	// Through -o, including gzip.
	dest := filepath.Join(t.TempDir(), "out.jsonl.gz")
	if _, _, err := runCmd(t, "export", "-o", dest, zct); err != nil {
		t.Fatalf("export -o: %v", err)
	}
	f, err := os.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("gzipped export differs from the original JSONL")
	}

	// Exporting to .zct is refused (export is JSONL-only).
	if _, _, err := runCmd(t, "export", "-o", "no.zct", zct); err == nil {
		t.Error("export -o x.zct should be rejected")
	}
}

// TestDiffMixedFormat diffs a .zct trace against JSONL inputs: the
// twin matches, a perturbed copy names the same first divergence as
// the pure-JSONL diff.
func TestDiffMixedFormat(t *testing.T) {
	zct := zctTwin(t, "testdata/small.jsonl", 4)
	out, _, err := runCmd(t, "diff", zct, "testdata/small.jsonl")
	if err != nil {
		t.Fatalf("mixed-format diff of identical traces: %v\n%s", err, out)
	}
	if !strings.Contains(out, "traces identical: 16 events") {
		t.Errorf("unexpected mixed diff output: %q", out)
	}

	raw, err := os.ReadFile("testdata/small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	lines[7] = strings.Replace(lines[7], `"detail":100`, `"detail":250`, 1)
	bPath := filepath.Join(t.TempDir(), "perturbed.jsonl")
	if err := os.WriteFile(bPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err = runCmd(t, "diff", zct, bPath)
	if err == nil {
		t.Fatal("perturbed mixed diff should diverge")
	}
	if !strings.Contains(out, "diverge at event 7") {
		t.Errorf("mixed diff should name event 7:\n%s", out)
	}
}

func TestUnknownCommand(t *testing.T) {
	if _, _, err := runCmd(t, "bogus"); err == nil {
		t.Error("unknown command should fail")
	}
	if _, _, err := runCmd(t); err == nil {
		t.Error("no command should fail")
	}
}

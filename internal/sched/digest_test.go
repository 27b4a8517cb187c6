package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"zccloud/internal/sim"
	"zccloud/internal/tracebin"
)

// Pinned digests of one seeded faulted run per queue policy (see
// TestOutputDigests). They change only when scheduling behaviour
// changes; a refactor that claims to preserve behaviour must leave them
// alone. Regenerate with `go test ./internal/sched -run TestOutputDigests
// -v` only for an intended behaviour change, and say why in the commit.
//
// events is the trace with its checkpoint-* lines removed: those lines
// carry the snapshot's pending-event count, which depends on how
// arrivals are queued, while every other line is scheduling behaviour.
var wantDigests = []struct {
	policy                          Policy
	trace, events, result, snapshot string
}{
	{FCFS,
		"83d6fc55f33d37864390433f7200686e91a5aad6bff17d1861a314780455509f",
		"0ea28cd76f815629d4cb483b3c5e520241c55ab8b04a97eaf243d1b70f8f83f7",
		"b09b05b0cc7cb6228e9290c25732728bd8761b538ab8d282892e586f98c42804",
		"8be8c687cc60492e295959c2dcada9ee14d5eec8540cec45dde5a3f83b550e86"},
	// WFP is the policy behind every paper experiment.
	{WFP,
		"f7496229c2926829a517d31da2316ee1241964b7e92fdc0a52f9de8d2c462726",
		"cadaf5b65da674e5f1b6960c5c2ae7628f0f8407c75898b045ba5337a63b52dd",
		"099cd5542f2b844ccf93f059d130c0d5102431bcba9ad838a8f855d159df177c",
		"76ce87bf634fa3323e8816df55af34e9ca082f74d0b6a799737810d3e37c9991"},
}

// TestOutputDigests is a cross-commit identity oracle. Determinism tests
// compare two runs of the same binary; this one compares a run against
// digests recorded from an earlier build, so it catches a change that is
// deterministic but different. The run covers injected node failures,
// brownouts and forecast error, non-oracle windows with kills and
// checkpointed requeues, a mid-run StopAt snapshot, and an in-process
// continuation to the end, once under FCFS and once under WFP.
func TestOutputDigests(t *testing.T) {
	for _, want := range wantDigests {
		t.Run(want.policy.String(), func(t *testing.T) {
			trace, events, res, snap := digestRun(t, want.policy)
			for _, c := range []struct{ name, got, want string }{
				{"trace", trace, want.trace},
				{"events", events, want.events},
				{"result", res, want.result},
				{"snapshot", snap, want.snapshot},
			} {
				if c.got != c.want {
					t.Errorf("%s digest = %s, want %s", c.name, c.got, c.want)
				}
			}
		})
	}
}

// digestRun performs the oracle's run under one queue policy and
// returns the sha256 digests of its trace, its trace without
// checkpoint-* lines, its result and its mid-run snapshot.
func digestRun(t *testing.T, policy Policy) (trace, events, result, snapshot string) {
	t.Helper()
	var buf bytes.Buffer
	tr := tracebin.NewJSONL(&buf)
	cfg := snapWorld(t, true, tr)
	cfg.Policy = policy
	s := mustNew(t, cfg)
	r := rand.New(rand.NewSource(2016))
	for i := 1; i <= 150; i++ {
		rt := sim.Time(50 + r.Intn(850))
		j := mkJob(i, sim.Time(r.Intn(8000)), rt, 1+r.Intn(16))
		j.Request = rt * sim.Time(1+r.Float64())
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}

	const deadline = 1e6
	s.cfg.StopAt = 3100
	if _, err := s.Run(deadline); err != ErrInterrupted {
		t.Fatalf("Run with StopAt: err = %v, want ErrInterrupted", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	s.cfg.StopAt = 0
	res := mustRun(t, s, deadline)
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	// The oracle is only as strong as the paths the run takes.
	for _, ev := range []string{"kill", "requeue", "node-fail", "node-repair", "brownout", "backfill-start"} {
		if !bytes.Contains(buf.Bytes(), []byte(`"ev":"`+ev+`"`)) {
			t.Errorf("run never traced a %q event; the digests would not cover it", ev)
		}
	}

	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var kept []byte
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"ev":"checkpoint-`)) {
			kept = append(kept, line...)
		}
	}
	return digest(buf.Bytes()), digest(kept), digest(resJSON), digest(snapJSON)
}

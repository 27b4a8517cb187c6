package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"zccloud/internal/obs"
	"zccloud/internal/sim"
)

// Pinned digests of one seeded faulted run (see TestOutputDigests). They
// change only when scheduling behaviour changes; a refactor that claims
// to preserve behaviour must leave them alone. Regenerate with
// `go test ./internal/sched -run TestOutputDigests -v` only for an
// intended behaviour change, and say why in the commit.
const (
	wantTraceDigest    = "a41750c6d1d392c6bd9e58ab00d2201aeb06ec51aba458eb8d3f622447c99e58"
	wantResultDigest   = "b09b05b0cc7cb6228e9290c25732728bd8761b538ab8d282892e586f98c42804"
	wantSnapshotDigest = "d0a86423dbade267ee865e32d9894dc3f349b2f0dbe8a181090bca095a31eccb"
)

// TestOutputDigests is a cross-commit identity oracle. Determinism tests
// compare two runs of the same binary; this one compares a run against
// digests recorded from an earlier build, so it catches a change that is
// deterministic but different. The run covers injected node failures,
// brownouts and forecast error, non-oracle windows with kills and
// checkpointed requeues, a mid-run StopAt snapshot, and an in-process
// continuation to the end.
func TestOutputDigests(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	s := mustNew(t, snapWorld(t, true, tr))
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
	for _, c := range []struct{ name, got, want string }{
		{"trace", digest(buf.Bytes()), wantTraceDigest},
		{"result", digest(resJSON), wantResultDigest},
		{"snapshot", digest(snapJSON), wantSnapshotDigest},
	} {
		if c.got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, c.got, c.want)
		}
	}
}

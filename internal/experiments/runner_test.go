package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zccloud/internal/obs"
	"zccloud/internal/sched"
)

// fakeExp builds a trivial experiment cell for runner tests.
func fakeExp(id string, run func(*Lab) (*Table, error)) Experiment {
	return Experiment{ID: id, Title: id, Kind: "test", Run: run}
}

func okExp(id string) Experiment {
	return fakeExp(id, func(*Lab) (*Table, error) {
		t := &Table{ID: id, Title: id, Columns: []string{"v"}}
		t.AddRow(42)
		return t, nil
	})
}

func TestSweepJournalAndResume(t *testing.T) {
	dir := t.TempDir()
	var failing atomic.Bool
	failing.Store(true)
	exps := []Experiment{
		okExp("a"),
		fakeExp("b", func(*Lab) (*Table, error) {
			if failing.Load() {
				return nil, errors.New("transient backend hiccup")
			}
			tb := &Table{ID: "b", Title: "b", Columns: []string{"v"}}
			tb.AddRow(1)
			return tb, nil
		}),
		okExp("c"),
	}
	cfg := SweepConfig{Dir: dir, Options: Quick(1), Experiments: exps}

	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 3 || res.Skipped != 0 {
		t.Fatalf("ran %d skipped %d, want 3/0", res.Ran, res.Skipped)
	}
	if len(res.Failed) != 1 || res.Failed[0] != "b" {
		t.Fatalf("failed = %v, want [b]", res.Failed)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(res.Tables))
	}

	// Resume with the failure cleared: only b re-runs.
	failing.Store(false)
	cfg.Resume = true
	res, err = RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 1 || res.Skipped != 2 {
		t.Fatalf("resume ran %d skipped %d, want 1/2", res.Ran, res.Skipped)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("resume failed = %v", res.Failed)
	}
	if len(res.Tables) != 3 || res.Tables[1].ID != "b" {
		t.Fatalf("resume tables wrong: %d", len(res.Tables))
	}

	// SweepStatus sees the latest record per cell.
	recs, err := SweepStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("status records = %d", len(recs))
	}
	for _, r := range recs {
		if r.Status != CellOK {
			t.Errorf("cell %s status %s after resume", r.ID, r.Status)
		}
	}
}

// TestSweepPanicGuard runs a panicking cell between two good ones, into
// a run directory and unjournaled (an empty Dir): both record the same
// outcomes, the unjournaled sweep writes no file, and OnCell hands over
// each ok cell's table in experiment order.
func TestSweepPanicGuard(t *testing.T) {
	exps := []Experiment{
		okExp("before"),
		fakeExp("boom", func(*Lab) (*Table, error) { panic("cell exploded") }),
		okExp("after"),
	}
	var records []map[string]CellRecord
	for _, dir := range []string{t.TempDir(), ""} {
		// Run from an empty working directory, so that any file the
		// sweep writes shows up there.
		wd := t.TempDir()
		prev, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
		tr := &obs.Mem{}
		reg := obs.NewRegistry()
		var tables []string
		res, err := RunSweep(SweepConfig{
			Dir: dir, Options: Quick(1), Experiments: exps,
			Obs: obs.Options{Tracer: tr, Metrics: reg},
			OnCell: func(rec CellRecord, _ bool) {
				if rec.Status == CellOK {
					tables = append(tables, rec.Table.ID)
				}
			},
		})
		if cerr := os.Chdir(prev); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatalf("dir %q: %v", dir, err)
		}
		rec := res.Records["boom"]
		if rec.Status != CellPanic {
			t.Fatalf("dir %q: status = %s, want panic", dir, rec.Status)
		}
		if !strings.Contains(rec.Error, "cell exploded") || rec.Stack == "" {
			t.Errorf("dir %q: panic record missing message or stack: %+v", dir, rec.Error)
		}
		if res.Records["after"].Status != CellOK {
			t.Errorf("dir %q: sweep did not continue past the panicking cell", dir)
		}
		if len(res.Failed) != 1 || res.Failed[0] != "boom" {
			t.Errorf("dir %q: failed = %v", dir, res.Failed)
		}
		if len(tr.Filter(obs.EvCellPanic)) != 1 {
			t.Errorf("dir %q: no cell-panic trace event", dir)
		}
		if got := reg.Scope("sweep").Counter("cell_panics").Value(); got != 1 {
			t.Errorf("dir %q: cell_panics = %d", dir, got)
		}
		if got := strings.Join(tables, ","); got != "before,after" {
			t.Errorf("dir %q: OnCell saw ok tables %s, want before,after", dir, got)
		}
		if ents, err := os.ReadDir(wd); err != nil || len(ents) != 0 {
			t.Errorf("dir %q: the sweep wrote %v into the working directory (%v)", dir, ents, err)
		}
		records = append(records, res.Records)
	}
	journaled, unjournaled := records[0], records[1]
	if len(journaled) != len(unjournaled) {
		t.Fatalf("records: %d journaled, %d unjournaled", len(journaled), len(unjournaled))
	}
	for id, a := range journaled {
		b := unjournaled[id]
		if a.Status != b.Status || a.Error != b.Error || !reflect.DeepEqual(a.Table, b.Table) {
			t.Errorf("cell %s: journaled %s %q, unjournaled %s %q", id, a.Status, a.Error, b.Status, b.Error)
		}
	}
}

func TestSweepResumeNeedsDir(t *testing.T) {
	_, err := RunSweep(SweepConfig{Options: Quick(1), Experiments: []Experiment{okExp("a")}, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "resume needs a run directory") {
		t.Fatalf("err = %v, want resume needs a run directory", err)
	}
}

func TestSweepWatchdogTimeout(t *testing.T) {
	// A cooperative cell: it spins until the interrupt flag fires, then
	// stops the way an interrupted simulation does.
	coop := fakeExp("slow", func(l *Lab) (*Table, error) {
		for !l.Obs().Interrupt() {
			time.Sleep(time.Millisecond)
		}
		return nil, fmt.Errorf("stopped mid-sweep: %w", sched.ErrInterrupted)
	})
	res, err := RunSweep(SweepConfig{
		Dir: t.TempDir(), Options: Quick(1),
		Experiments: []Experiment{coop, okExp("next")},
		CellTimeout: 20 * time.Millisecond,
		Grace:       5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Records["slow"]
	if rec.Status != CellTimeout {
		t.Fatalf("status = %s, want timeout", rec.Status)
	}
	if res.Records["next"].Status != CellOK {
		t.Error("sweep did not continue past the timed-out cell")
	}
	if len(res.Failed) != 1 || res.Failed[0] != "slow" {
		t.Errorf("failed = %v", res.Failed)
	}
}

func TestSweepWedgedCellAborts(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	defer close(release)
	wedged := fakeExp("stuck", func(*Lab) (*Table, error) {
		<-release // ignores the cooperative stop entirely
		return nil, errors.New("never")
	})
	res, err := RunSweep(SweepConfig{
		Dir: dir, Options: Quick(1),
		Experiments: []Experiment{wedged, okExp("unreached")},
		CellTimeout: 10 * time.Millisecond,
		Grace:       20 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("err = %v, want wedged", err)
	}
	if res.Records["stuck"].Status != CellWedged {
		t.Fatalf("status = %s, want wedged", res.Records["stuck"].Status)
	}
	if _, ok := res.Records["unreached"]; ok {
		t.Error("sweep continued past a wedged cell")
	}
	// The journal must survive for a resume.
	recs, err := SweepStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != CellWedged {
		t.Fatalf("journal after wedge: %+v", recs)
	}
}

func TestSweepExternalInterrupt(t *testing.T) {
	dir := t.TempDir()
	var stop atomic.Bool
	first := fakeExp("first", func(*Lab) (*Table, error) {
		stop.Store(true) // signal arrives while the first cell runs
		tb := &Table{ID: "first", Title: "first", Columns: []string{"v"}}
		tb.AddRow(1)
		return tb, nil
	})
	cfg := SweepConfig{
		Dir: dir, Options: Quick(1),
		Experiments: []Experiment{first, okExp("second")},
		Interrupt:   stop.Load,
	}
	res, err := RunSweep(cfg)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("err = %v, want ErrSweepInterrupted", err)
	}
	if res.Ran != 1 || res.Records["first"].Status != CellOK {
		t.Fatalf("first cell not journaled before stop: %+v", res)
	}

	cfg.Interrupt = nil
	cfg.Resume = true
	res, err = RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 || res.Ran != 1 || len(res.Failed) != 0 {
		t.Fatalf("resume after interrupt: %+v", res)
	}
}

func TestSweepMidCellInterruptNotJournaled(t *testing.T) {
	dir := t.TempDir()
	var stop atomic.Bool
	// The cell observes the external interrupt through the lab's obs
	// hook (as a simulation would) and stops without finishing.
	coop := fakeExp("mid", func(l *Lab) (*Table, error) {
		stop.Store(true)
		if !l.Obs().Interrupt() {
			return nil, errors.New("interrupt not visible inside the cell")
		}
		return nil, fmt.Errorf("paused: %w", sched.ErrInterrupted)
	})
	cfg := SweepConfig{
		Dir: dir, Options: Quick(1),
		Experiments: []Experiment{coop},
		Interrupt:   stop.Load,
	}
	_, err := RunSweep(cfg)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("err = %v, want ErrSweepInterrupted", err)
	}
	// Not the cell's fault: no record, so a resume re-runs it.
	recs, err := SweepStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("interrupted cell was journaled: %+v", recs)
	}
}

func TestSweepResumeRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := SweepConfig{Dir: dir, Options: Quick(1), Experiments: []Experiment{okExp("a")}}
	if _, err := RunSweep(cfg); err != nil {
		t.Fatal(err)
	}

	// Different options.
	bad := cfg
	bad.Resume = true
	bad.Options = Quick(2)
	if _, err := RunSweep(bad); err == nil || !strings.Contains(err.Error(), "resume refused") {
		t.Fatalf("changed options: err = %v", err)
	}

	// Different experiment set.
	bad = cfg
	bad.Resume = true
	bad.Experiments = []Experiment{okExp("a"), okExp("b")}
	if _, err := RunSweep(bad); err == nil || !strings.Contains(err.Error(), "resume refused") {
		t.Fatalf("changed experiment set: err = %v", err)
	}

	// Resuming a directory that was never started.
	bad = cfg
	bad.Resume = true
	bad.Dir = t.TempDir()
	if _, err := RunSweep(bad); err == nil || !strings.Contains(err.Error(), "resume refused") {
		t.Fatalf("missing manifest: err = %v", err)
	}

	// A fresh (non-resume) run must not clobber an existing sweep.
	if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("fresh run over existing sweep: err = %v", err)
	}

	// The matching configuration still resumes cleanly.
	good := cfg
	good.Resume = true
	res, err := RunSweep(good)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 {
		t.Fatalf("clean resume skipped %d", res.Skipped)
	}
}

// TestSweepAllExperimentsTiny drives every registered experiment at a
// tiny scale through the resumable runner: each cell must finish under
// the panic guard with a usable table and no invariant violations.
func TestSweepAllExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment registry")
	}
	reg := obs.NewRegistry()
	opt := Options{
		Seed: 1, WorkloadDays: 10, MarketDays: 20, WindSites: 24,
		BrownoutProb: 0.25, FaultMTBFHours: 6, RetryLimit: 4,
	}
	res, err := RunSweep(SweepConfig{
		Dir:     t.TempDir(),
		Options: opt,
		Obs:     obs.Options{Metrics: reg, Check: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		for _, id := range res.Failed {
			rec := res.Records[id]
			t.Errorf("cell %s: %s: %s", id, rec.Status, rec.Error)
		}
		t.FailNow()
	}
	if res.Ran != len(All) {
		t.Errorf("ran %d cells, want %d", res.Ran, len(All))
	}
	for _, e := range All {
		rec := res.Records[e.ID]
		if rec.Table == nil {
			t.Errorf("cell %s: no table", e.ID)
			continue
		}
		// Prediction legitimately yields no rows when the tiny market
		// window has no SP intervals; everything else must have rows.
		if len(rec.Table.Rows) == 0 && e.ID != "prediction" {
			t.Errorf("cell %s: empty table", e.ID)
		}
	}
	snap := reg.Snapshot()
	if v := snap.Counter("sched.invariant_violations"); v != 0 {
		t.Errorf("invariant violations during sweep: %d", v)
	}

	// Every table, and the amount of simulation behind them, is pinned:
	// a refactor of how experiments run their simulations must change
	// neither.
	for _, e := range All {
		rec := res.Records[e.ID]
		if rec.Table == nil {
			continue
		}
		sum := sha256.Sum256([]byte(rec.Table.Markdown()))
		if got := hex.EncodeToString(sum[:]); got != tinyTableDigests[e.ID] {
			t.Errorf("cell %s: table digest %s, want %s", e.ID, got, tinyTableDigests[e.ID])
		}
	}
	sims, reused := snap.Counter("run.simulations"), snap.Counter("run.reused")
	if sims+reused != tinyRuns || reused != tinyReused {
		t.Errorf("simulations run %d + reused %d; want %d + %d", sims, reused, tinyRuns-tinyReused, tinyReused)
	}
	if got := snap.Counter("sim.events_dispatched"); got != tinyEvents {
		t.Errorf("events dispatched = %d, want %d", got, tinyEvents)
	}
}

// Pinned outputs of TestSweepAllExperimentsTiny: the SHA-256 of each
// cell's Markdown table, the runs the experiments declare and how many
// of them repeat an earlier run of the sweep's Lab, and the registry's
// dispatched event count over the whole sweep.
var tinyTableDigests = map[string]string{
	"table1":      "4f1f037f2349ce199beaf812bf7ffad023605ba9eb34fbe458796067fd8c3301",
	"table2":      "545eefa7297b5acb7fdfbbe6757471ef1679b980d17d14c9afc798af0b9ce718",
	"fig5":        "1e7932ebe5b028eea0a24fe650cfbd5601e215efeefa7e0eeebb3f4716fccc07",
	"fig6":        "06c34132fac780585bf8ddc2c91d28487b9907125af0a47709bb35b10d06cf6a",
	"fig7":        "57e9225de0e5ef1133cbf789ac3ab5183a84ab223b00949a6a736b9be82d42d6",
	"fig8":        "02c7e57fb64771be6ac340feab244161cc0dde2a44e065fae0cbc03a721b1f52",
	"table3":      "2e321ae55d457c9eed72b912f0db6b69e78dd13c8f96204c2531dd6fd758b0df",
	"table4":      "d293e9ecfb43fa9ef9cd3ada5fdc34b953081f030d9df830dc7fe1f3abf8510e",
	"table5":      "6a47577064df888660f43951407ad0286fa6f098e5e5b719464b4e28d4c1ce5f",
	"fig9":        "5c52383958cac96ec8047d719ed2927bf6f762c7caca8bf1e1cfdbd203c4ef1b",
	"fig10":       "7b867a39c9c454fe5517b54de32a563426196476f24c0446c55a60730ab19031",
	"fig11":       "bd9ea218cb4f9403a5aa00a9d0330c9220f43dbf4859f30ee0681a9e2f11214c",
	"fig12":       "26313bfd6ab3de2a8b5814b0fb0e34448bac34f7a31314ec08a349e08a2ef37d",
	"table6":      "ded9a0e52eff390472ea52ce514d2137b81dbd2c81a231ee952a4ff57f8a55e6",
	"table7":      "064207846a5ec92bce90217dbfff19f8c41ad273396d5ad700b8fc95e84b2f7e",
	"fig13":       "43fc8079bf017105d08fc61fc84643e741d07c85b2ff0775b34efd248adcba83",
	"fig14":       "1d8689c6a095fcc7b3a1a4fa46ced12bce890d5ba9427f33d6d2ec351a6b6f41",
	"fig15":       "2e3b47c7d96ec75df066be59b3fe57da639a3795a803b0e5732d5e833b6d38b7",
	"multisite":   "339621f2dd6cd7482164e01183bfdd37ca5c8b609274a398362cbae395394f74",
	"killrequeue": "38bc5cb1cf527e4a71dfb327f060170d8012833f45261192835469ae91fa3f58",
	"prediction":  "663e4a5bcb743dbe9eff02b2663f2d6fce7b421761b2055b9ce4882f091bc6f1",
	"backfill":    "72530d307430f9ccff61554248b4e281b7b71e688cc20251ea022b9d56474ab6",
	"burstiness":  "de949e4143b3d37c82b6ce485fffc508a51111d7e36958096331985c5cba8e50",
	"economics":   "f4ba13e92d8f28819747eb7aabf3a97efecf18ca17254eb0114b52150f789a67",
	"checkpoint":  "f8e5adf00b43ade85e2c3cd5e2ba85782b6698b541edc134def712da3bea44ad",
	"caiso":       "c92c45e6b01ce4e2116ce184a7bbca00b170869bb932c86a2694fec0a42274b9",
	"resilience":  "0e430a2cc2cd811d2130a60e2ef0356274c5f698cb7b1bd08e1cf60a724c0a52",
	"admission":   "8f1ba57e8f898d2bbb9cc862592e904ebf57bb33dddec65f2ed6162641dbc6e8",
}

const (
	tinyRuns   = 91
	tinyReused = 33
	tinyEvents = 315931
)

// TestSweepContextCancelBetweenCells: SweepConfig.Context is the
// context-shaped twin of Interrupt — a cancellation landing while one
// cell runs stops the sweep at the next cell boundary, journaling the
// finished cell so a resume skips it.
func TestSweepContextCancelBetweenCells(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := fakeExp("first", func(*Lab) (*Table, error) {
		cancel() // cancellation arrives while the first cell runs
		tb := &Table{ID: "first", Title: "first", Columns: []string{"v"}}
		tb.AddRow(1)
		return tb, nil
	})
	cfg := SweepConfig{
		Dir: dir, Options: Quick(1),
		Experiments: []Experiment{first, okExp("second")},
		Context:     ctx,
	}
	res, err := RunSweep(cfg)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("err = %v, want ErrSweepInterrupted", err)
	}
	if res.Ran != 1 || res.Records["first"].Status != CellOK {
		t.Fatalf("first cell not journaled before stop: %+v", res)
	}

	cfg.Context = nil
	cfg.Resume = true
	res, err = RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 || res.Ran != 1 || len(res.Failed) != 0 {
		t.Fatalf("resume after context cancel: %+v", res)
	}

	// A context dead before the sweep starts runs nothing.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	res, err = RunSweep(SweepConfig{
		Dir: t.TempDir(), Options: Quick(1),
		Experiments: []Experiment{okExp("only")},
		Context:     dead,
	})
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("dead-context sweep err = %v", err)
	}
	if res.Ran != 0 {
		t.Fatalf("dead-context sweep ran %d cells, want 0", res.Ran)
	}
}

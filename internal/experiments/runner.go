package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"zccloud/internal/obs"
	"zccloud/internal/persist"
	"zccloud/internal/sched"
)

// SweepVersion guards the on-disk layout of a sweep run directory (the
// manifest and the cell journal). Bump it whenever CellRecord or the
// manifest change incompatibly; resume refuses a directory written by a
// different version.
const SweepVersion = 1

// Cell statuses recorded in the journal. Only CellOK cells are skipped
// on resume; every other status is re-run.
const (
	CellOK      = "ok"      // experiment completed; Table recorded
	CellError   = "error"   // experiment returned an error
	CellPanic   = "panic"   // experiment panicked; stack recorded
	CellTimeout = "timeout" // watchdog fired and the cell stopped cooperatively
	CellWedged  = "wedged"  // watchdog fired and the cell never stopped (fatal)

	// Fleet-mode statuses, written by the zccd control plane rather than
	// the process that ran the cell. None are skipped on resume.
	CellReleased  = "released"  // agent drained and parked the cell back on the queue
	CellLost      = "lost"      // agent reaped or lease expired mid-cell
	CellAbandoned = "abandoned" // retry budget exhausted; terminal
)

// ErrSweepInterrupted reports that RunSweep stopped early because its
// Interrupt hook fired. The journal is consistent: every completed cell
// is recorded, and resuming the same directory picks up where the sweep
// left off.
var ErrSweepInterrupted = errors.New("experiments: sweep interrupted; resume the run directory to continue")

// CellRecord is one journal entry: the outcome of running one experiment
// ("cell") of a sweep. The journal holds one record per attempt; the
// last record per ID wins.
type CellRecord struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// ElapsedMS is wall-clock cell duration. It never feeds back into
	// results — tables stay deterministic — it only aids debugging.
	ElapsedMS int64  `json:"elapsed_ms"`
	Error     string `json:"error,omitempty"`
	Stack     string `json:"stack,omitempty"`
	Table     *Table `json:"table,omitempty"`
	// SpanMS breaks ElapsedMS down by run phase (wall-clock milliseconds
	// per span name), recorded when the sweep runs with span timing.
	SpanMS map[string]float64 `json:"span_ms,omitempty"`
}

// sweepManifest pins a run directory to the configuration that created
// it. Resume compares fingerprints and refuses a mismatch, so a journal
// written under one option set is never silently merged with results
// from another.
type sweepManifest struct {
	Fingerprint string   `json:"fingerprint"`
	Experiments []string `json:"experiments"`
	Options     Options  `json:"options"`
}

const manifestKind = "zccloud-sweep"

// SweepConfig configures a resumable experiment sweep.
type SweepConfig struct {
	// Dir is the run directory: manifest.json plus cells.jsonl live here.
	// An empty Dir runs the sweep unjournaled: nothing is written, and
	// the cells run exactly as they would into a directory.
	Dir string
	// Options parameterize the Lab shared by every cell.
	Options Options
	// Obs carries telemetry hooks into every experiment the sweep runs.
	// Its Interrupt hook, if set, is chained with the sweep's own
	// watchdog and Interrupt.
	Obs obs.Options
	// Experiments defaults to All.
	Experiments []Experiment
	// Resume continues a previous run: completed cells are skipped,
	// failed ones re-run. The manifest must match this configuration.
	Resume bool
	// CellTimeout is the per-cell watchdog budget; 0 disables it. When
	// it expires the cell is asked to stop cooperatively (the simulation
	// loop polls the interrupt flag between events).
	CellTimeout time.Duration
	// Grace bounds how long a timed-out cell may take to acknowledge the
	// cooperative stop before it is declared wedged (default 30s). A
	// wedged cell aborts the sweep — its goroutine cannot be reclaimed —
	// but the journal stays resumable.
	Grace time.Duration
	// Interrupt, when non-nil, stops the sweep at the next safe point:
	// between cells immediately, mid-cell at the simulation's next event
	// boundary. RunSweep then returns ErrSweepInterrupted.
	Interrupt func() bool
	// Context, when non-nil, cancels the sweep exactly as Interrupt does:
	// between cells immediately, mid-cell at the simulation's next event
	// boundary (the cancellation is polled by the cell's hot loop through
	// the same cooperative hook). RunSweep returns ErrSweepInterrupted and
	// the journal stays resumable.
	Context context.Context
	// OnCell, when non-nil, is called after each cell settles: executed
	// cells right after their record is journaled, and cells satisfied
	// from a previous journal with skipped=true. Useful for progress
	// reporting and deterministic interruption tests.
	OnCell func(rec CellRecord, skipped bool)
}

// SweepResult summarizes a RunSweep invocation.
type SweepResult struct {
	// Tables holds the completed tables in experiment order (skipped
	// cells contribute their journaled table).
	Tables []*Table
	// Records maps experiment ID to its latest journal record.
	Records map[string]CellRecord
	// Ran counts cells executed by this invocation; Skipped counts cells
	// satisfied from the journal of a previous run.
	Ran, Skipped int
	// Failed lists experiment IDs whose latest status is not CellOK, in
	// experiment order.
	Failed []string
}

// sweepFingerprint identifies a sweep configuration: the layout version,
// the resolved lab options, and the exact experiment set. Telemetry,
// timeouts, and interrupt wiring are deliberately excluded — a resume
// may observe or pace the run differently.
func sweepFingerprint(opt Options, exps []Experiment) (string, error) {
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return persist.Fingerprint(struct {
		Version     int
		Options     Options
		Experiments []string
	}{SweepVersion, opt.withDefaults(), ids})
}

// Sweep is an open run directory: the manifest is written (or verified,
// on resume), the journal is open for appends, and Prior holds the
// latest record per cell from any previous run. It is the on-disk half
// of a sweep, shared by the in-process runner (RunSweep) and the zccd
// fleet control plane — both write the same layout, so a sweep started
// under one can be finished or resumed under the other.
type Sweep struct {
	dir         string
	fingerprint string
	ids         []string
	prior       map[string]CellRecord
	journal     *persist.Journal
}

// Dir returns the run directory.
func (s *Sweep) Dir() string { return s.dir }

// Fingerprint returns the manifest fingerprint pinning this sweep's
// configuration.
func (s *Sweep) Fingerprint() string { return s.fingerprint }

// CellIDs returns the sweep's experiment IDs in run order.
func (s *Sweep) CellIDs() []string { return append([]string(nil), s.ids...) }

// Prior returns the latest journal record per cell from previous runs
// (last record wins). The map is shared, not copied; treat it read-only.
func (s *Sweep) Prior() map[string]CellRecord { return s.prior }

// Append journals one cell record (fsync'd).
func (s *Sweep) Append(rec CellRecord) error { return s.journal.Append(rec) }

// Close closes the journal. The directory stays resumable.
func (s *Sweep) Close() error { return s.journal.Close() }

// OpenSweep opens (or creates) a sweep run directory for the given
// configuration. A fresh directory gets a manifest pinning the
// fingerprint; with resume set, the existing manifest must match the
// configuration and the journal's records are loaded last-record-wins.
// Without resume, a directory that already holds a sweep is refused.
func OpenSweep(dir string, opt Options, exps []Experiment, resume bool) (*Sweep, error) {
	if dir == "" {
		return nil, errors.New("experiments: sweep needs a run directory")
	}
	fp, err := sweepFingerprint(opt, exps)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	journalPath := filepath.Join(dir, "cells.jsonl")
	prior := make(map[string]CellRecord)
	if resume {
		var man sweepManifest
		if err := persist.LoadJSON(manifestPath, manifestKind, SweepVersion, &man); err != nil {
			return nil, fmt.Errorf("experiments: resume refused: %w", err)
		}
		if man.Fingerprint != fp {
			return nil, fmt.Errorf("experiments: resume refused: run directory %s was created with a different configuration (manifest fingerprint %.12s, current %.12s)",
				dir, man.Fingerprint, fp)
		}
		err := persist.ReadJournal(journalPath, func() any { return &CellRecord{} },
			func(rec any) error {
				r := rec.(*CellRecord)
				prior[r.ID] = *r
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("experiments: resume refused: %w", err)
		}
	} else {
		if _, err := os.Stat(manifestPath); err == nil {
			return nil, fmt.Errorf("experiments: %s already holds a sweep; resume it or choose a fresh directory", dir)
		}
		man := sweepManifest{Fingerprint: fp, Options: opt.withDefaults()}
		for _, e := range exps {
			man.Experiments = append(man.Experiments, e.ID)
		}
		if err := persist.SaveJSON(manifestPath, manifestKind, SweepVersion, man); err != nil {
			return nil, err
		}
	}
	journal, err := persist.OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return &Sweep{dir: dir, fingerprint: fp, ids: ids, prior: prior, journal: journal}, nil
}

// RunSweep runs the configured experiments, journaling one record per
// cell to Dir unless Dir is empty. Each cell runs under a panic guard
// and, when CellTimeout is set, a watchdog; a failing cell is recorded
// and the sweep moves on. With Resume set, cells whose latest journal
// record is CellOK are skipped and only missing or failed cells run.
//
// RunSweep returns an error only when the sweep infrastructure fails
// (unusable run directory, manifest mismatch, wedged cell, interrupt);
// per-cell failures are reported through SweepResult.Failed.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	exps := cfg.Experiments
	if exps == nil {
		exps = All
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 30 * time.Second
	}
	var sw *Sweep
	fp, prior := "", map[string]CellRecord{}
	if cfg.Dir != "" {
		var err error
		if sw, err = OpenSweep(cfg.Dir, cfg.Options, exps, cfg.Resume); err != nil {
			return nil, err
		}
		defer sw.Close()
		fp, prior = sw.Fingerprint(), sw.Prior()
	} else if cfg.Resume {
		return nil, errors.New("experiments: resume needs a run directory")
	}

	r := &sweepRunner{cfg: cfg}
	lab := NewLab(cfg.Options)
	labObs := cfg.Obs
	labObs.Interrupt = r.interrupted
	lab.SetObs(labObs)

	// Declare every cell to the live-status board and the step-wise
	// progress reporter; cells satisfied from a prior journal will count
	// as done immediately, so a resumed sweep's percent never restarts
	// from zero.
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	cfg.Obs.Status.InitSweep(fp, ids)
	cfg.Obs.Progress.StartSteps(len(exps))

	res := &SweepResult{Records: prior}
	for _, e := range exps {
		if cfg.Interrupt != nil && cfg.Interrupt() {
			return res, ErrSweepInterrupted
		}
		if cfg.Context != nil && cfg.Context.Err() != nil {
			return res, ErrSweepInterrupted
		}
		if rec, ok := prior[e.ID]; ok && rec.Status == CellOK {
			res.Skipped++
			res.Tables = append(res.Tables, rec.Table)
			cfg.Obs.Status.SetCell(e.ID, rec.Status, true, time.Duration(rec.ElapsedMS)*time.Millisecond)
			cfg.Obs.Progress.StepDone(e.ID, 0, true)
			if cfg.OnCell != nil {
				cfg.OnCell(rec, true)
			}
			continue
		}
		cfg.Obs.Status.SetCell(e.ID, "running", false, 0)
		cfg.Obs.Status.SetPhase(e.ID)
		cfg.Obs.Progress.Phase(e.ID)
		rec, fatal := r.runCell(lab, e)
		if fatal == nil || errors.Is(fatal, errCellWedged) {
			// A wedged cell is journaled before the sweep aborts, so a
			// resume re-runs it.
			res.Records[rec.ID] = rec
			if sw != nil {
				if err := sw.Append(rec); err != nil {
					return res, err
				}
			}
			res.Ran++
			elapsed := time.Duration(rec.ElapsedMS) * time.Millisecond
			cfg.Obs.Status.SetCell(e.ID, rec.Status, false, elapsed)
			cfg.Obs.Progress.StepDone(e.ID, elapsed, false)
			if cfg.OnCell != nil {
				cfg.OnCell(rec, false)
			}
		}
		if fatal != nil {
			if errors.Is(fatal, sched.ErrInterrupted) {
				return res, ErrSweepInterrupted
			}
			return res, fatal
		}
		if rec.Status == CellOK {
			res.Tables = append(res.Tables, rec.Table)
		}
	}
	for _, e := range exps {
		if rec, ok := res.Records[e.ID]; !ok || rec.Status != CellOK {
			res.Failed = append(res.Failed, e.ID)
		}
	}
	return res, nil
}

// errCellWedged marks a cell that ignored its cooperative stop for the
// whole grace period.
var errCellWedged = errors.New("cell wedged")

type sweepRunner struct {
	cfg      SweepConfig
	watchdog atomic.Bool // set when the current cell's budget expires
}

// interrupted is the interrupt hook installed on the Lab: it fires for
// the cell watchdog, the sweep-level Interrupt, sweep Context
// cancellation, and any caller-supplied obs interrupt, in that order of
// likelihood.
func (r *sweepRunner) interrupted() bool {
	if r.watchdog.Load() {
		return true
	}
	if r.cfg.Interrupt != nil && r.cfg.Interrupt() {
		return true
	}
	if r.cfg.Context != nil && r.cfg.Context.Err() != nil {
		return true
	}
	return r.cfg.Obs.Interrupt != nil && r.cfg.Obs.Interrupt()
}

type cellOutcome struct {
	table    *Table
	err      error
	panicked bool
	stack    []byte
}

// runCell executes one experiment under a panic guard and watchdog. The
// returned error is nil for any journalable outcome (including cell
// failures); it is non-nil when the sweep itself must stop: the cell
// wedged (errCellWedged; the record is still journalable) or an external
// interrupt fired (wraps sched.ErrInterrupted; the cell is not recorded
// so a resume re-runs it).
func (r *sweepRunner) runCell(lab *Lab, e Experiment) (CellRecord, error) {
	r.watchdog.Store(false)
	start := time.Now()

	// With span timing on, give the cell its own accumulator so the
	// journal records a per-cell phase breakdown; fold it back into the
	// sweep-wide totals once the cell settles. The swap happens strictly
	// before the cell goroutine starts and the restore strictly after it
	// finishes, so the Lab is never accessed concurrently.
	baseObs := lab.Obs()
	var cellTm *obs.Timings
	if baseObs.Timings != nil {
		cellTm = obs.NewTimings()
		cellObs := baseObs
		cellObs.Timings = cellTm
		lab.SetObs(cellObs)
	}

	done := make(chan cellOutcome, 1)
	go func() { done <- runGuarded(lab, e) }()

	var hard <-chan time.Time
	if r.cfg.CellTimeout > 0 {
		soft := time.AfterFunc(r.cfg.CellTimeout, func() { r.watchdog.Store(true) })
		defer soft.Stop()
		ht := time.NewTimer(r.cfg.CellTimeout + r.cfg.Grace)
		defer ht.Stop()
		hard = ht.C
	}

	var out cellOutcome
	select {
	case out = <-done:
	case <-hard:
		// The cell ignored the cooperative stop: its goroutine cannot be
		// reclaimed and still shares the Lab, so the sweep must abort.
		rec := CellRecord{
			ID:        e.ID,
			Status:    CellWedged,
			ElapsedMS: time.Since(start).Milliseconds(),
			Error: fmt.Sprintf("cell exceeded its %v budget and did not stop within the %v grace period",
				r.cfg.CellTimeout, r.cfg.Grace),
		}
		return rec, fmt.Errorf("experiments: cell %s %w after %v; resume the run directory to retry it",
			e.ID, errCellWedged, r.cfg.CellTimeout+r.cfg.Grace)
	}

	rec, interrupted := cellRecord(e.ID, time.Since(start), out)
	if cellTm != nil {
		lab.SetObs(baseObs)
		spans := cellTm.Snapshot()
		baseObs.Timings.Merge(spans)
		if len(spans) > 0 {
			rec.SpanMS = make(map[string]float64, len(spans))
			for _, s := range spans {
				rec.SpanMS[s.Name] = s.TotalMS
			}
		}
	}
	switch {
	case interrupted && r.watchdog.Load():
		rec.Status = CellTimeout
		rec.Error = fmt.Sprintf("watchdog: cell exceeded its %v budget: %v", r.cfg.CellTimeout, out.err)
	case interrupted:
		// External interrupt: not the cell's fault — don't journal.
		return rec, fmt.Errorf("experiments: cell %s stopped: %w", e.ID, sched.ErrInterrupted)
	case rec.Status == CellPanic:
		if t := r.cfg.Obs.Tracer; t != nil {
			t.Trace(obs.Event{Kind: obs.EvCellPanic, Job: -1})
		}
		if m := r.cfg.Obs.Metrics; m != nil {
			m.Scope("sweep").Counter("cell_panics").Inc()
		}
	}
	return rec, nil
}

// ExecuteCell runs one experiment cell to a journalable record under a
// panic guard, with no watchdog of its own: callers that need a budget
// (a fleet agent's lease deadline, a drain signal) install an Interrupt
// hook on the Lab's obs options. When that hook stops the cell,
// ExecuteCell reports interrupted=true with a status-less record — the
// cell produced no result and should be released back to its queue, not
// journaled as failed.
func ExecuteCell(lab *Lab, e Experiment) (rec CellRecord, interrupted bool) {
	start := time.Now()
	out := runGuarded(lab, e)
	return cellRecord(e.ID, time.Since(start), out)
}

// cellRecord maps a cell's outcome to its journal record. A cell that
// an interrupt stopped yields interrupted=true and a status-less record:
// it produced no result, and what the stop means is the caller's call.
func cellRecord(id string, elapsed time.Duration, out cellOutcome) (rec CellRecord, interrupted bool) {
	rec = CellRecord{ID: id, ElapsedMS: elapsed.Milliseconds()}
	switch {
	case out.panicked:
		rec.Status = CellPanic
		rec.Error = out.err.Error()
		rec.Stack = string(out.stack)
	case errors.Is(out.err, sched.ErrInterrupted):
		return rec, true
	case out.err != nil:
		rec.Status = CellError
		rec.Error = out.err.Error()
	case out.table == nil:
		rec.Status = CellError
		rec.Error = "experiment returned no table"
	default:
		rec.Status = CellOK
		rec.Table = out.table
	}
	return rec, false
}

// runGuarded executes e.Run under a panic guard in the calling
// goroutine.
func runGuarded(lab *Lab, e Experiment) (out cellOutcome) {
	defer func() {
		if p := recover(); p != nil {
			out = cellOutcome{
				err:      fmt.Errorf("panic: %v", p),
				panicked: true,
				stack:    debug.Stack(),
			}
		}
	}()
	t, err := e.Run(lab)
	return cellOutcome{table: t, err: err}
}

// SweepStatus summarizes a run directory's journal without running
// anything: the latest record per cell, in experiment-registry order
// (unknown IDs sorted last).
func SweepStatus(dir string) ([]CellRecord, error) {
	latest := make(map[string]CellRecord)
	err := persist.ReadJournal(filepath.Join(dir, "cells.jsonl"),
		func() any { return &CellRecord{} },
		func(rec any) error {
			r := rec.(*CellRecord)
			latest[r.ID] = *r
			return nil
		})
	if err != nil {
		return nil, err
	}
	order := make(map[string]int, len(All))
	for i, e := range All {
		order[e.ID] = i
	}
	out := make([]CellRecord, 0, len(latest))
	for _, rec := range latest {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		oi, iok := order[out[i].ID]
		oj, jok := order[out[j].ID]
		if iok != jok {
			return iok
		}
		if iok && jok && oi != oj {
			return oi < oj
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

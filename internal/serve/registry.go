package serve

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"zccloud/internal/experiments"
	"zccloud/internal/persist"
)

// The sweep registry is <data>/sweeps/registry.jsonl: an append-only
// journal of which distributed sweeps exist, so a restarted zccd
// re-adopts every open sweep on its own — no manual resume resubmission.
// Replay is last-record-wins per sweep:
//
//	{"type":"sweep", "id":..., "dir":..., "experiments":..., "options":...}
//	  registers a sweep (written BEFORE the run directory is touched, so
//	  a crash at any later point leaves a record the restart acts on);
//	{"type":"done", "id":...} closes it (every cell terminal);
//	{"type":"dropped", "id":...} abandons it (its directory could not be
//	  opened — the submission failed, or re-adoption did);
//	{"type":"epoch", "epoch":N} fences lease tokens: N is a high-water
//	  mark persisted BEFORE any token under it is granted, so a restart
//	  starting above max(epoch) fences every pre-crash token.
//
// Registration and epoch records are written through the same breaker
// sink as the run journal and, like a run's admission record, are
// mandatory — a submission whose registration cannot be journaled
// fails, because an unjournaled sweep would silently evaporate on
// restart.

// registryRecord is one registry.jsonl line.
type registryRecord struct {
	Time time.Time `json:"time"`
	Type string    `json:"type"`         // sweep, done, dropped, epoch
	ID   string    `json:"id,omitempty"` // sweep id (all but epoch)
	// Registration payload ("sweep" records): everything SubmitSweep
	// resolved, so re-adoption rebuilds the identical sweep (and the
	// identical fingerprint) without the original request.
	Dir         string               `json:"dir,omitempty"` // plain name under <data>/sweeps/
	Name        string               `json:"name,omitempty"`
	Experiments []string             `json:"experiments,omitempty"`
	Options     *experiments.Options `json:"options,omitempty"`
	// Epoch is the token high-water mark ("epoch" records).
	Epoch int64 `json:"epoch,omitempty"`
}

// registryReplay is what a registry journal replays to.
type registryReplay struct {
	// open lists still-open sweeps in registration order.
	open []registryRecord
	// epoch is the highest persisted token high-water mark; every token a
	// previous incarnation granted is ≤ it.
	epoch int64
	// nextSeq is the highest numeric sweep-id suffix seen (open or not),
	// so new ids never collide with journaled ones.
	nextSeq int
}

// idSeq extracts the numeric suffix of an id made of prefix and a
// number: "r-%06d" run ids, "s-%06d" sweep ids.
func idSeq(id, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// replayRegistry reads a registry journal (missing file = empty, torn
// tail tolerated) into the set of open sweeps, the token epoch, and the
// id counter.
func replayRegistry(path string) (registryReplay, error) {
	var rp registryReplay
	open := make(map[string]registryRecord)
	var order []string
	err := persist.ReadJournal(path, func() any { return &registryRecord{} },
		func(rec any) error {
			r := *rec.(*registryRecord)
			switch r.Type {
			case "sweep":
				if _, ok := open[r.ID]; !ok {
					order = append(order, r.ID)
				}
				open[r.ID] = r
			case "done", "dropped":
				delete(open, r.ID)
			case "epoch":
				if r.Epoch > rp.epoch {
					rp.epoch = r.Epoch
				}
			}
			if n, ok := idSeq(r.ID, "s-"); ok && n > rp.nextSeq {
				rp.nextSeq = n
			}
			return nil
		})
	if err != nil {
		return registryReplay{}, fmt.Errorf("serve: replaying sweep registry: %w", err)
	}
	// Two open registrations naming the same directory would re-adopt as
	// two fleet sweeps double-executing one journal; the later
	// registration supersedes (a resume resubmission of the same dir).
	byDir := make(map[string]string) // dir → winning sweep id
	for _, id := range order {
		if rec, ok := open[id]; ok {
			byDir[rec.Dir] = id
		}
	}
	for _, id := range order {
		rec, ok := open[id]
		if !ok || byDir[rec.Dir] != id {
			continue
		}
		rp.open = append(rp.open, rec)
	}
	return rp, nil
}

// registryAppend journals one registry record through the breaker sink.
// Callers decide whether a failure is fatal (registrations, epochs) or
// retried later (done markers).
func (s *Server) registryAppend(rec registryRecord) error {
	rec.Time = time.Now()
	return s.registry.append(rec, rec.ID, rec.Type)
}

// persistEpoch is the fleet controller's PersistEpoch hook: the token
// high-water mark must be durable before any token under it is granted.
func (s *Server) persistEpoch(high int64) error {
	return s.registry.append(registryRecord{Time: time.Now(), Type: "epoch", Epoch: high}, "", "epoch")
}

// readoptSweeps re-adopts every sweep the registry replayed as open: the
// run directory is reopened in resume mode (cells already journaled
// CellOK stay terminal, everything else — including cells that were
// leased at the crash — requeues) and handed back to the fleet
// controller. A sweep whose directory cannot be reopened is journaled
// dropped so the next restart does not retry it forever.
func (s *Server) readoptSweeps(open []registryRecord) {
	for _, rec := range open {
		if err := s.readoptSweep(rec); err != nil {
			s.log.Error("sweep re-adoption failed; dropping from registry",
				"run_id", rec.ID, "dir", rec.Dir, "err", err.Error())
			s.registryAppend(registryRecord{Type: "dropped", ID: rec.ID})
		}
	}
}

func (s *Server) readoptSweep(rec registryRecord) error {
	exps := make([]experiments.Experiment, 0, len(rec.Experiments))
	for _, id := range rec.Experiments {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		exps = append(exps, e)
	}
	var opt experiments.Options
	if rec.Options != nil {
		opt = *rec.Options
	}
	dir := filepath.Join(s.cfg.DataDir, "sweeps", rec.Dir)
	sw, err := experiments.OpenSweep(dir, opt, exps, true)
	if err != nil {
		return err
	}
	j := &sweepJournal{sw: sw}
	if err := s.fleet.AddSweep(rec.ID, dir, rec.Name, opt, sw.Fingerprint(), sw.CellIDs(), sw.Prior(), j); err != nil {
		j.close()
		return err
	}
	s.sweepMu.Lock()
	s.sweepJournals[rec.ID] = j
	s.sweepMu.Unlock()
	done := 0
	for _, pr := range sw.Prior() {
		if pr.Status == experiments.CellOK {
			done++
		}
	}
	s.log.Info("sweep re-adopted", "run_id", rec.ID, "dir", dir,
		"cells", len(sw.CellIDs()), "already_done", done)
	return nil
}

// markFinishedSweeps journals a done record for each sweep whose cells
// are all terminal, once. Called from the fleet loop, so a failed
// append (sick disk) simply retries next tick; a missed done record
// only costs a harmless re-adoption of an already-finished sweep.
func (s *Server) markFinishedSweeps() {
	for _, v := range s.fleet.Sweeps() {
		if !v.Done {
			continue
		}
		s.sweepMu.Lock()
		marked := s.sweepDone[v.ID]
		s.sweepMu.Unlock()
		if marked {
			continue
		}
		if err := s.registryAppend(registryRecord{Type: "done", ID: v.ID}); err != nil {
			continue
		}
		s.sweepMu.Lock()
		s.sweepDone[v.ID] = true
		s.sweepMu.Unlock()
	}
}

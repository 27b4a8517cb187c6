// Package job defines the batch-job model shared by the workload generator,
// the scheduler, and the experiment harness, together with CSV trace I/O.
//
// A Job mirrors the fields of an ALCF Cobalt accounting record that the
// ZCCloud study uses: submission time, true runtime, requested walltime,
// and node count. Scheduling outcomes (start time, partition) are recorded
// on the job by the simulator.
package job

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"zccloud/internal/sim"
)

// Class partitions jobs by size the way the paper does: capability jobs
// request more than 8,192 nodes.
type Class int

// Job size classes.
const (
	ClassCapacity   Class = iota // <= 8k nodes
	ClassCapability              // > 8k nodes ("capability jobs")
)

// CapabilityThreshold is the node count above which a job is a capability
// job (paper, Section IV.B).
const CapabilityThreshold = 8192

func (c Class) String() string {
	if c == ClassCapability {
		return "capability"
	}
	return "capacity"
}

// TimelinessUnknown..Late classify jobs relative to intermittent uptime
// (paper, Figure 6): an on-time job can finish within the uptime window
// current at its submission; a late job must wait for a later window.
type Timeliness int

// Timeliness values.
const (
	TimelinessUnknown Timeliness = iota
	OnTime
	Late
)

func (t Timeliness) String() string {
	switch t {
	case OnTime:
		return "on-time"
	case Late:
		return "late"
	default:
		return "unknown"
	}
}

// Job is one batch job.
type Job struct {
	ID      int
	Submit  sim.Time     // submission (arrival) time
	Runtime sim.Duration // true runtime
	Request sim.Duration // user-requested walltime (>= Runtime)
	Nodes   int          // nodes requested

	// Simulation outcome, filled by the scheduler.
	Start     sim.Time
	End       sim.Time
	Partition string // partition the job ran on ("" if never started)
	Started   bool
	Completed bool
	// Abandoned marks a job that exhausted its retry budget after
	// repeated kills (fault-injection runs only); terminal like
	// Completed, but without useful output.
	Abandoned  bool
	Requeues   int // times killed by a resource outage and resubmitted
	Timeliness Timeliness
	// Progress is checkpointed work (in runtime seconds) carried across
	// kill/requeue cycles when the scheduler checkpoints; a resumed job
	// only needs Runtime − Progress more work.
	Progress sim.Duration
}

// Wait returns the queue wait (start − submit). Calling Wait on a job that
// never started is a programming error and panics.
func (j *Job) Wait() sim.Duration {
	if !j.Started {
		panic(fmt.Sprintf("job %d never started", j.ID))
	}
	return j.Start - j.Submit
}

// Turnaround returns end − submit for a completed job.
func (j *Job) Turnaround() sim.Duration {
	if !j.Completed {
		panic(fmt.Sprintf("job %d never completed", j.ID))
	}
	return j.End - j.Submit
}

// NodeHours returns runtime × nodes, in node-hours.
func (j *Job) NodeHours() float64 {
	return j.Runtime.Hours() * float64(j.Nodes)
}

// Class returns the job's size class.
func (j *Job) Class() Class {
	if j.Nodes > CapabilityThreshold {
		return ClassCapability
	}
	return ClassCapacity
}

// Reset clears simulation outcome fields so a trace can be replayed.
func (j *Job) Reset() {
	j.Start, j.End = 0, 0
	j.Partition = ""
	j.Started, j.Completed = false, false
	j.Abandoned = false
	j.Requeues = 0
	j.Timeliness = TimelinessUnknown
	j.Progress = 0
}

// Trace is an ordered collection of jobs.
type Trace struct {
	Jobs []*Job
}

// SortBySubmit orders jobs by submission time (stable on ID).
func (t *Trace) SortBySubmit() {
	sort.SliceStable(t.Jobs, func(i, k int) bool {
		a, b := t.Jobs[i], t.Jobs[k]
		if a.Submit != b.Submit {
			return a.Submit < b.Submit
		}
		return a.ID < b.ID
	})
}

// NodeHours returns the total node-hours in the trace.
func (t *Trace) NodeHours() float64 {
	sum := 0.0
	for _, j := range t.Jobs {
		sum += j.NodeHours()
	}
	return sum
}

// Span returns the submission time range [first, last] of the trace.
// A nil or empty trace spans [0, 0].
func (t *Trace) Span() (first, last sim.Time) {
	if t == nil || len(t.Jobs) == 0 {
		return 0, 0
	}
	first, last = t.Jobs[0].Submit, t.Jobs[0].Submit
	for _, j := range t.Jobs {
		if j.Submit < first {
			first = j.Submit
		}
		if j.Submit > last {
			last = j.Submit
		}
	}
	return first, last
}

// Reset clears simulation outcomes on every job.
func (t *Trace) Reset() {
	for _, j := range t.Jobs {
		j.Reset()
	}
}

// Clone deep-copies the trace so multiple simulations can run from one
// generated workload.
func (t *Trace) Clone() *Trace {
	out := &Trace{Jobs: make([]*Job, len(t.Jobs))}
	for i, j := range t.Jobs {
		cp := *j
		out.Jobs[i] = &cp
	}
	return out
}

// csvHeader is the on-disk column layout.
var csvHeader = []string{"id", "submit_s", "runtime_s", "request_s", "nodes"}

// WriteCSV writes the trace in a stable CSV layout.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, j := range t.Jobs {
		rec := []string{
			strconv.Itoa(j.ID),
			strconv.FormatFloat(float64(j.Submit), 'f', -1, 64),
			strconv.FormatFloat(float64(j.Runtime), 'f', -1, 64),
			strconv.FormatFloat(float64(j.Request), 'f', -1, 64),
			strconv.Itoa(j.Nodes),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("job: reading header: %w", err)
	}
	for i, want := range csvHeader {
		if head[i] != want {
			return nil, fmt.Errorf("job: column %d is %q, want %q", i, head[i], want)
		}
	}
	t := &Trace{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("job: line %d: %w", line, err)
		}
		j := &Job{}
		if j.ID, err = strconv.Atoi(rec[0]); err != nil {
			return nil, fmt.Errorf("job: line %d id: %w", line, err)
		}
		fields := []struct {
			dst *sim.Time
			s   string
		}{{&j.Submit, rec[1]}, {&j.Runtime, rec[2]}, {&j.Request, rec[3]}}
		for _, f := range fields {
			v, err := strconv.ParseFloat(f.s, 64)
			if err != nil {
				return nil, fmt.Errorf("job: line %d: %w", line, err)
			}
			*f.dst = sim.Time(v)
		}
		if j.Nodes, err = strconv.Atoi(rec[4]); err != nil {
			return nil, fmt.Errorf("job: line %d nodes: %w", line, err)
		}
		if err := Validate(j); err != nil {
			return nil, fmt.Errorf("job: line %d: %w", line, err)
		}
		t.Jobs = append(t.Jobs, j)
	}
}

// Validate checks the static fields of a job.
func Validate(j *Job) error {
	switch {
	case !finite(j.Submit) || !finite(j.Runtime) || !finite(j.Request):
		return fmt.Errorf("job %d: non-finite time (submit %v, runtime %v, request %v)",
			j.ID, j.Submit, j.Runtime, j.Request)
	case j.Nodes <= 0:
		return fmt.Errorf("job %d: nodes %d <= 0", j.ID, j.Nodes)
	case j.Runtime <= 0:
		return fmt.Errorf("job %d: runtime %v <= 0", j.ID, j.Runtime)
	case j.Request < j.Runtime:
		return fmt.Errorf("job %d: request %v < runtime %v", j.ID, j.Request, j.Runtime)
	case j.Submit < 0:
		return fmt.Errorf("job %d: negative submit %v", j.ID, j.Submit)
	}
	return nil
}

func finite(t sim.Time) bool { return !math.IsNaN(float64(t)) && !math.IsInf(float64(t), 0) }

package job

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"zccloud/internal/sim"
)

func mkJob(id int, submit, runtime sim.Time, nodes int) *Job {
	return &Job{ID: id, Submit: submit, Runtime: runtime, Request: runtime * 1.5, Nodes: nodes}
}

func TestClass(t *testing.T) {
	if mkJob(1, 0, 10, 8192).Class() != ClassCapacity {
		t.Error("8192 nodes should be capacity (threshold is exclusive)")
	}
	if mkJob(1, 0, 10, 8193).Class() != ClassCapability {
		t.Error("8193 nodes should be capability")
	}
	if ClassCapability.String() != "capability" || ClassCapacity.String() != "capacity" {
		t.Error("Class.String wrong")
	}
}

func TestTimelinessString(t *testing.T) {
	if OnTime.String() != "on-time" || Late.String() != "late" || TimelinessUnknown.String() != "unknown" {
		t.Error("Timeliness.String wrong")
	}
}

func TestWaitTurnaround(t *testing.T) {
	j := mkJob(1, 100, 50, 4)
	j.Started, j.Start = true, 130
	j.Completed, j.End = true, 180
	if j.Wait() != 30 {
		t.Errorf("wait = %v, want 30", j.Wait())
	}
	if j.Turnaround() != 80 {
		t.Errorf("turnaround = %v, want 80", j.Turnaround())
	}
}

func TestWaitPanicsUnstarted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Wait on unstarted job should panic")
		}
	}()
	mkJob(1, 0, 10, 1).Wait()
}

func TestTurnaroundPanicsIncomplete(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Turnaround on incomplete job should panic")
		}
	}()
	mkJob(1, 0, 10, 1).Turnaround()
}

func TestNodeHours(t *testing.T) {
	j := mkJob(1, 0, 2*sim.Hour, 100)
	if j.NodeHours() != 200 {
		t.Errorf("node-hours = %v, want 200", j.NodeHours())
	}
	tr := &Trace{Jobs: []*Job{j, mkJob(2, 0, sim.Hour, 10)}}
	if tr.NodeHours() != 210 {
		t.Errorf("trace node-hours = %v, want 210", tr.NodeHours())
	}
}

func TestSortBySubmit(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		mkJob(3, 50, 1, 1), mkJob(1, 10, 1, 1), mkJob(2, 50, 1, 1),
	}}
	tr.SortBySubmit()
	ids := []int{tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID}
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("sorted ids = %v, want [1 2 3] (ties broken by ID)", ids)
	}
}

func TestSpan(t *testing.T) {
	var nilTrace *Trace
	if f, l := nilTrace.Span(); f != 0 || l != 0 {
		t.Error("nil trace span should be [0,0]")
	}
	tr := &Trace{Jobs: []*Job{mkJob(1, 30, 1, 1), mkJob(2, 10, 1, 1), mkJob(3, 20, 1, 1)}}
	f, l := tr.Span()
	if f != 10 || l != 30 {
		t.Errorf("span = [%v,%v], want [10,30]", f, l)
	}
}

func TestResetAndClone(t *testing.T) {
	j := mkJob(1, 0, 10, 4)
	j.Started, j.Start, j.Partition, j.Requeues = true, 5, "mira", 2
	j.Completed, j.End, j.Timeliness = true, 15, Late
	tr := &Trace{Jobs: []*Job{j}}

	cl := tr.Clone()
	cl.Jobs[0].Nodes = 999
	if tr.Jobs[0].Nodes == 999 {
		t.Error("Clone shares job storage")
	}

	tr.Reset()
	if j.Started || j.Completed || j.Partition != "" || j.Requeues != 0 ||
		j.Timeliness != TimelinessUnknown || j.Start != 0 || j.End != 0 {
		t.Errorf("Reset incomplete: %+v", j)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		mkJob(1, 0, 3600, 1),
		mkJob(2, 1800.5, 7200, 49152),
		mkJob(3, 86400, 14.4, 512),
	}}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(tr.Jobs) {
		t.Fatalf("read %d jobs, want %d", len(got.Jobs), len(tr.Jobs))
	}
	for i, j := range tr.Jobs {
		g := got.Jobs[i]
		if g.ID != j.ID || g.Submit != j.Submit || g.Runtime != j.Runtime ||
			g.Request != j.Request || g.Nodes != j.Nodes {
			t.Errorf("job %d round-trip mismatch: got %+v want %+v", i, g, j)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad header", "a,b,c,d,e\n"},
		{"bad id", "id,submit_s,runtime_s,request_s,nodes\nx,0,1,1,1\n"},
		{"bad float", "id,submit_s,runtime_s,request_s,nodes\n1,zz,1,1,1\n"},
		{"bad nodes", "id,submit_s,runtime_s,request_s,nodes\n1,0,1,1,zz\n"},
		{"invalid job", "id,submit_s,runtime_s,request_s,nodes\n1,0,1,0.5,1\n"},
		{"zero nodes", "id,submit_s,runtime_s,request_s,nodes\n1,0,1,1,0\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestValidate(t *testing.T) {
	good := mkJob(1, 0, 10, 1)
	if err := Validate(good); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	bad := []*Job{
		{ID: 1, Nodes: 0, Runtime: 1, Request: 1},
		{ID: 1, Nodes: 1, Runtime: 0, Request: 1},
		{ID: 1, Nodes: 1, Runtime: 2, Request: 1},
		{ID: 1, Nodes: 1, Runtime: 1, Request: 1, Submit: -1},
		{ID: 1, Nodes: 1, Runtime: sim.Time(math.NaN()), Request: 1},
		{ID: 1, Nodes: 1, Runtime: 1, Request: sim.Time(math.NaN())},
		{ID: 1, Nodes: 1, Runtime: 1, Request: sim.Time(math.Inf(1))},
		{ID: 1, Nodes: 1, Runtime: 1, Request: 1, Submit: sim.Time(math.NaN())},
		{ID: 1, Nodes: 1, Runtime: 1, Request: 1, Submit: sim.Time(math.Inf(1))},
	}
	for i, j := range bad {
		if err := Validate(j); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
}

// Property: CSV round trip preserves every job for random traces.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := &Trace{}
		for i := 0; i < int(n)%40; i++ {
			rt := sim.Time(1 + r.Float64()*1e5)
			tr.Jobs = append(tr.Jobs, &Job{
				ID:      i,
				Submit:  sim.Time(r.Float64() * 1e7),
				Runtime: rt,
				Request: rt * sim.Time(1+r.Float64()),
				Nodes:   1 + r.Intn(49152),
			})
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if len(got.Jobs) != len(tr.Jobs) {
			return false
		}
		for i := range tr.Jobs {
			if *got.Jobs[i] != *tr.Jobs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

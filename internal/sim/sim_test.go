package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// drain pops every event, returning the descriptors in dispatch order.
func drain[E any](e *Engine[E]) []E {
	var got []E
	for {
		_, ev, ok := e.Next()
		if !ok {
			return got
		}
		got = append(got, ev)
	}
}

func TestDispatchOrder(t *testing.T) {
	e := New[int]()
	e.Schedule(10, PrioSchedule, 3)
	e.Schedule(5, PrioSchedule, 1)
	e.Schedule(10, PrioRelease, 2)
	if got, want := drain(e), []int{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if e.Now() != 10 {
		t.Errorf("now = %v, want 10", e.Now())
	}
	if e.Stats().Steps != 3 {
		t.Errorf("steps = %d, want 3", e.Stats().Steps)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New[int]()
	for i := 0; i < 10; i++ {
		e.Schedule(1, PrioArrival, i)
	}
	got := drain(e)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant same-priority events not FIFO: %v", got)
		}
	}
}

func TestSchedulePastLatchesError(t *testing.T) {
	e := New[string]()
	e.Schedule(10, PrioSchedule, "first")
	drain(e)
	if err := e.Err(); err != nil {
		t.Fatalf("unexpected engine error: %v", err)
	}
	h := e.Schedule(5, PrioSchedule, "past")
	if e.Err() == nil {
		t.Fatal("expected a latched error scheduling in the past")
	}
	if e.Cancel(h) {
		t.Error("inert event should not be cancellable")
	}
	e.Schedule(20, PrioSchedule, "future")
	if got := drain(e); len(got) != 0 {
		t.Errorf("events %v fired after a scheduling fault was latched", got)
	}
}

func TestCancel(t *testing.T) {
	e := New[int]()
	h := e.Schedule(10, PrioSchedule, 1)
	if !e.Cancel(h) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(h) {
		t.Error("double Cancel returned true")
	}
	if e.Cancel(Handle{}) {
		t.Error("Cancel(Handle{}) returned true")
	}
	if got := drain(e); len(got) != 0 {
		t.Errorf("cancelled event fired: %v", got)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New[int]()
	var hs []Handle
	for i := 1; i <= 20; i++ {
		hs = append(hs, e.Schedule(Time(i), PrioSchedule, i))
	}
	var want []int
	for i, h := range hs {
		if i%3 == 2 {
			e.Cancel(h)
		} else {
			want = append(want, i+1)
		}
	}
	if got := drain(e); !slices.Equal(got, want) {
		t.Fatalf("dispatch after cancels = %v, want %v", got, want)
	}
}

// TestStaleHandleIsNoOp: a handle whose event already fired, or was
// cancelled, must not cancel the unrelated event that reuses its slot.
func TestStaleHandleIsNoOp(t *testing.T) {
	e := New[string]()
	fired := e.Schedule(1, PrioSchedule, "fired")
	if _, ev, _ := e.Next(); ev != "fired" {
		t.Fatalf("popped %q, want fired", ev)
	}
	reuse := e.Schedule(2, PrioSchedule, "reuses fired's slot")
	if reuse.slot != fired.slot {
		t.Fatalf("slot not recycled (%d vs %d); the test needs reuse", reuse.slot, fired.slot)
	}
	if e.Cancel(fired) {
		t.Error("stale handle of a fired event cancelled something")
	}

	gone := e.Schedule(3, PrioSchedule, "cancelled")
	e.Cancel(gone)
	again := e.Schedule(4, PrioSchedule, "reuses cancelled's slot")
	if again.slot != gone.slot {
		t.Fatalf("slot not recycled (%d vs %d); the test needs reuse", again.slot, gone.slot)
	}
	if e.Cancel(gone) {
		t.Error("stale handle of a cancelled event cancelled something")
	}
	want := []string{"reuses fired's slot", "reuses cancelled's slot"}
	if got := drain(e); !slices.Equal(got, want) {
		t.Fatalf("dispatched %q, want %q", got, want)
	}
}

// Property: events always dispatch in nondecreasing time order, and all
// scheduled events run exactly once.
func TestDispatchMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := New[int]()
		count := int(n)
		var times []float64
		for i := 0; i < count; i++ {
			at := Time(r.Float64() * 1000)
			times = append(times, float64(at))
			e.Schedule(at, r.Intn(4), i)
		}
		seen := make([]bool, count)
		last := Time(-1)
		fired := 0
		for {
			now, i, ok := e.Next()
			if !ok {
				break
			}
			if now < last || seen[i] {
				return false
			}
			seen[i] = true
			last = now
			fired++
		}
		sort.Float64s(times)
		return fired == count && (count == 0 || Time(times[count-1]) == e.Now())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	// Events scheduled while dispatching, at the current instant, run in
	// the same pass, respecting priority.
	e := New[string]()
	e.Schedule(1, PrioArrival, "arrival")
	var got []string
	for {
		now, ev, ok := e.Next()
		if !ok {
			break
		}
		got = append(got, ev)
		if ev == "arrival" {
			e.Schedule(now, PrioSchedule, "sched")
		}
	}
	if len(got) != 2 || got[0] != "arrival" || got[1] != "sched" {
		t.Fatalf("got %v", got)
	}
}

func TestPendingInOrder(t *testing.T) {
	e := New[int]()
	e.Schedule(30, PrioSchedule, 4)
	e.Schedule(10, PrioSchedule, 2)
	h := e.Schedule(20, PrioSchedule, -1)
	e.Schedule(10, PrioRelease, 1)
	e.Schedule(30, PrioSchedule, 5)
	e.Schedule(25, PrioArrival, 3)
	e.Cancel(h)
	want := []int{1, 2, 3, 4, 5}
	if got := e.PendingInOrder(); !slices.Equal(got, want) {
		t.Fatalf("PendingInOrder = %v, want %v", got, want)
	}
	if got := drain(e); !slices.Equal(got, want) {
		t.Fatalf("PendingInOrder disturbed the queue: dispatched %v", got)
	}
	if got := e.PendingInOrder(); got != nil {
		t.Errorf("empty queue lists %v, want nil", got)
	}
}

func TestRestoreStateRefusesUsedEngine(t *testing.T) {
	e := New[int]()
	if err := e.RestoreState(State{Now: 7, Steps: 3, MaxQueueLen: 4}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Now != 7 || st.Steps != 3 || st.MaxQueueLen != 4 {
		t.Errorf("restored stats = %+v", st)
	}
	e.Schedule(8, PrioSchedule, 1)
	if err := e.RestoreState(State{}); err == nil {
		t.Error("RestoreState overwrote an engine with queued events")
	}
}

func TestQueueStats(t *testing.T) {
	e := New[int]()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), PrioSchedule, i)
	}
	if st := e.Stats(); st.MaxQueueLen != 5 {
		t.Errorf("max queue len = %d, want 5", st.MaxQueueLen)
	}
	drain(e)
	if st := e.Stats(); st.Pending != 0 {
		t.Errorf("pending = %d after draining", st.Pending)
	}
}

func TestHours(t *testing.T) {
	if (2 * Hour).Hours() != 2 {
		t.Error("Hours conversion wrong")
	}
}

func TestEngineStats(t *testing.T) {
	e := New[int]()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), PrioSchedule, i)
	}
	st := e.Stats()
	if st.Pending != 5 || st.MaxQueueLen != 5 || st.Steps != 0 {
		t.Errorf("pre-run stats = %+v", st)
	}
	drain(e)
	st = e.Stats()
	if st.Steps != 5 || st.Pending != 0 || st.Now != 4 || st.MaxQueueLen != 5 {
		t.Errorf("post-run stats = %+v", st)
	}
}

// stepDesc is a descriptor the size of a typical scheduler event.
type stepDesc struct {
	kind  string
	job   int
	part  string
	nodes int
}

// primed returns an engine holding depth pending events.
func primed(depth int) (*Engine[stepDesc], *rand.Rand) {
	r := rand.New(rand.NewSource(1))
	e := New[stepDesc]()
	for i := 0; i < depth; i++ {
		e.Schedule(Time(r.Float64()*1000), r.Intn(4), stepDesc{kind: "finish", job: i})
	}
	return e, r
}

// TestSteadyStateZeroAllocs: once the heap and slot table have grown to
// the working depth, Schedule + Next allocate nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	e, r := primed(256)
	allocs := testing.AllocsPerRun(1000, func() {
		now, ev, _ := e.Next()
		e.Schedule(now+Time(r.Float64()*100), r.Intn(4), ev)
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule+Next = %v allocs, want 0", allocs)
	}
}

// BenchmarkEngineStep measures the engine alone: one Next and one
// Schedule per op, at a constant queue depth of 1024.
func BenchmarkEngineStep(b *testing.B) {
	e, r := primed(1024)
	deltas := make([]Time, 4096)
	for i := range deltas {
		deltas[i] = Time(r.Float64() * 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, ev, _ := e.Next()
		e.Schedule(now+deltas[i%len(deltas)], i&3, ev)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

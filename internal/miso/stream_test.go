package miso

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// nextAll runs a plain Next loop over cfg's dataset.
func nextAll(t *testing.T, cfg Config) ([]Record, Summary) {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var all, buf []Record
	for {
		var ok bool
		if buf, ok = g.Next(buf); !ok {
			break
		}
		all = append(all, buf...)
	}
	return all, g.Summary()
}

// TestStreamMatchesNext checks that Stream hands over exactly the records
// of a Next loop, in order, in batches of whole intervals, and leaves the
// same Summary, for interval counts on and off the batch size.
func TestStreamMatchesNext(t *testing.T) {
	const sites = 7
	for _, intervals := range []int{1, streamBatch - 1, streamBatch, streamBatch + 1,
		streamBuffers*streamBatch + 3, IntervalsPerDay + 5} {
		for _, sc := range []Scenario{ScenarioMISO, ScenarioCAISO} {
			cfg := Config{Seed: int64(intervals), Days: float64(intervals) / IntervalsPerDay,
				WindSites: sites, Scenario: sc, StartDay: 3}
			want, wantSum := nextAll(t, cfg)
			if len(want) != intervals*sites {
				t.Fatalf("%d intervals: Next loop gave %d records", intervals, len(want))
			}
			g, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []Record
			batches := 0
			if err := g.Stream(func(batch []Record) error {
				if len(batch) == 0 || len(batch)%sites != 0 || len(batch) > streamBatch*sites {
					t.Fatalf("batch of %d records, want whole intervals of %d sites, at most %d",
						len(batch), sites, streamBatch)
				}
				batches++
				got = append(got, batch...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d intervals: streamed records differ from the Next loop", sc, intervals)
			}
			if wantBatches := (intervals + streamBatch - 1) / streamBatch; batches != wantBatches {
				t.Errorf("%s, %d intervals: %d batches, want %d", sc, intervals, batches, wantBatches)
			}
			if g.Summary() != wantSum {
				t.Errorf("%s, %d intervals: summary %+v, want %+v", sc, intervals, g.Summary(), wantSum)
			}
		}
	}
}

// waitGoroutines fails the test unless the goroutine count falls back
// to at most n within a second.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamStopsOnError checks that an error from fn ends the stream:
// Stream returns that error, fn is not called again, and the producer
// goroutine is gone.
func TestStreamStopsOnError(t *testing.T) {
	before := runtime.NumGoroutine()
	g := testGen(t, 2, 2, 10)
	boom := errors.New("boom")
	calls := 0
	err := g.Stream(func([]Record) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Stream returned %v, want %v", err, boom)
	}
	if calls != 2 {
		t.Errorf("fn called %d times, want 2", calls)
	}
	waitGoroutines(t, before)
	// The producer ran at most streamBuffers-1 batches past the failing one.
	if seen, at := int64(2*streamBatch), g.interval; at > seen+(streamBuffers-1)*streamBatch {
		t.Errorf("generator ran to interval %d after the stream stopped at %d", at, seen)
	}
}

// TestStreamPanicStopsProducer checks that a panic in fn reaches the
// caller only after the producer goroutine has stopped.
func TestStreamPanicStopsProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	g := testGen(t, 2, 2, 10)
	func() {
		defer func() {
			if r := recover(); r != "fn" {
				t.Fatalf("recovered %v, want the panic from fn", r)
			}
		}()
		g.Stream(func([]Record) error { panic("fn") })
	}()
	waitGoroutines(t, before)
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteCSVErrorEndsStream checks that a write error stops WriteCSV's
// stream and is returned, with no goroutine left running.
func TestWriteCSVErrorEndsStream(t *testing.T) {
	before := runtime.NumGoroutine()
	// 10 days of 50 sites is ~10 MB of CSV; the writer fails after the
	// first flush of the 1 MB buffer, long before the end.
	g := testGen(t, 3, 10, 50)
	rows, err := WriteCSV(g, &failWriter{n: 1 << 20})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteCSV returned %v, want %v", err, errDiskFull)
	}
	if total := int64(50) * g.Intervals(); rows <= 0 || rows >= total {
		t.Errorf("wrote %d of %d rows before the error", rows, total)
	}
	waitGoroutines(t, before)
	if g.interval >= g.Intervals() {
		t.Error("the generator ran to the end after the write error")
	}
}

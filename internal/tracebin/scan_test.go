package tracebin

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"zccloud/internal/obs"
)

// scanWorkers spans one worker, fewer workers than blocks, and more.
var scanWorkers = []int{1, 2, 4, 16}

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitGoroutines fails the test unless the goroutine count returns to
// want: a worker that has signalled its exit may take a moment to
// finish.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScanFileOrdered checks ScanFile delivers every event in file
// order at every worker count, over the block-parallel path (an
// indexed .zct) and the streaming fallbacks (torn .zct, JSONL, gzip).
func TestScanFileOrdered(t *testing.T) {
	events := genEvents(2000)
	zct := writeTrace(t, events, 64)
	var jsonl bytes.Buffer
	jw := NewJSONL(&jsonl)
	for _, e := range events {
		jw.Trace(e)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(zct)
	zw.Close()
	// Cutting the trailer leaves every block intact but the index unreadable.
	torn := zct[:len(zct)-3]

	inputs := map[string][]byte{"t.zct": zct, "torn.zct": torn, "t.jsonl": jsonl.Bytes(), "t.zct.gz": gz.Bytes()}
	for name, data := range inputs {
		path := writeFile(t, name, data)
		for _, workers := range scanWorkers {
			var got []obs.Event
			if err := scanFile(path, workers, func(e obs.Event) error {
				got = append(got, e)
				return nil
			}); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(got, events) {
				t.Fatalf("%s workers=%d: got %d events, want the %d written, in order", name, workers, len(got), len(events))
			}
		}
	}

	empty := writeFile(t, "empty.zct", writeTrace(t, nil, 64))
	if err := ScanFile(empty, func(obs.Event) error { return errors.New("event in an empty trace") }); err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	if err := ScanFile(filepath.Join(t.TempDir(), "missing.zct"), func(obs.Event) error { return nil }); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v, want ErrNotExist", err)
	}
}

// TestScanFileCorruptBlock flips one byte in a middle block: the scan
// returns that block's CRC error after delivering exactly the blocks
// before it, and leaves no worker running.
func TestScanFileCorruptBlock(t *testing.T) {
	const blockEvents, bad = 64, 10
	events := genEvents(40 * blockEvents)
	data := writeTrace(t, events, blockEvents)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	data[r.BlockInfo(bad).Offset+8] ^= 0xff
	path := writeFile(t, "corrupt.zct", data)

	base := runtime.NumGoroutine()
	for _, workers := range scanWorkers {
		var got []obs.Event
		err := scanFile(path, workers, func(e obs.Event) error {
			got = append(got, e)
			return nil
		})
		want := fmt.Sprintf("block %d failed its CRC32 check", bad)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: error %v, want %q", workers, err, want)
		}
		if !reflect.DeepEqual(got, events[:bad*blockEvents]) {
			t.Fatalf("workers=%d: delivered %d events, want the %d before block %d", workers, len(got), bad*blockEvents, bad)
		}
		waitGoroutines(t, base)
	}
}

// TestScanFileCallbackError checks an fn error stops the scan at once,
// is returned as is, and leaves no worker running.
func TestScanFileCallbackError(t *testing.T) {
	events := genEvents(3000)
	path := writeFile(t, "t.zct", writeTrace(t, events, 64))
	stop := errors.New("stop here")

	base := runtime.NumGoroutine()
	for _, workers := range scanWorkers {
		for _, at := range []int{0, 63, 64, 1500, len(events) - 1} {
			calls := 0
			err := scanFile(path, workers, func(e obs.Event) error {
				if e != events[calls] {
					return fmt.Errorf("event %d out of order", calls)
				}
				calls++
				if calls > at {
					return stop
				}
				return nil
			})
			if err != stop {
				t.Fatalf("workers=%d at=%d: error %v, want %v", workers, at, err, stop)
			}
			if calls != at+1 {
				t.Fatalf("workers=%d at=%d: fn called %d times, want %d", workers, at, calls, at+1)
			}
			waitGoroutines(t, base)
		}
	}
}

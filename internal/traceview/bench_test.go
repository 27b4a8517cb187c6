package traceview

import (
	"path/filepath"
	"testing"

	"zccloud/internal/sim"
	"zccloud/internal/tracebin"
)

const benchEvents = 200_000

// benchTrace writes a benchEvents-event .zct trace in default-size blocks.
func benchTrace(b *testing.B) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.zct")
	writeZCT(b, path, genTrace(benchEvents), tracebin.DefaultBlockEvents)
	return path
}

func reportEventRate(b *testing.B) {
	b.ReportMetric(float64(benchEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkScanFileSummary times SummarizeFile over a .zct file; its
// blocks decode on GOMAXPROCS goroutines (set with -cpu).
func BenchmarkScanFileSummary(b *testing.B) {
	path := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SummarizeFile(path); err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b)
}

// BenchmarkScanFileSeries times BuildSeriesFile over the same trace at
// a 6 h step.
func BenchmarkScanFileSeries(b *testing.B) {
	path := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSeriesFile(path, 6*sim.Hour); err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b)
}

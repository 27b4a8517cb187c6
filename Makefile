GO ?= go

.PHONY: build test race check bench bench-all bench-check fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check:
	sh scripts/check.sh

# bench records the perf baseline (BENCH_PR15.json; BENCH_PR4.json is
# kept as history): the end-to-end events/sec anchor plus the hot-path
# micro-benches. bench-all runs the complete per-experiment suite without
# recording anything.
bench:
	$(GO) run ./cmd/zccbench -o BENCH_PR15.json

bench-all:
	$(GO) test -bench=. -benchmem

# bench-check reruns the baseline subset and fails on regression:
# events/sec may not drop more than 15%, allocs/op may not grow more
# than 10% (zero-alloc baselines tolerate no allocation at all).
bench-check:
	$(GO) run ./cmd/zccbench -compare BENCH_PR15.json

fmt:
	gofmt -w .

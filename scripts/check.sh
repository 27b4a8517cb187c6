#!/bin/sh
# Repo health check: formatting, vet, build, tests (with race detector),
# and the zero-allocation guarantee for disabled instrumentation.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

# Deeper linters when present (CI installs pinned versions; local runs
# skip rather than fetch — the build must stay dependency-free offline).
if command -v staticcheck >/dev/null 2>&1; then
	echo "== staticcheck"
	staticcheck ./...
else
	echo "== staticcheck (not installed; skipped)"
fi
if command -v govulncheck >/dev/null 2>&1; then
	echo "== govulncheck"
	govulncheck ./...
else
	echo "== govulncheck (not installed; skipped)"
fi

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# One green run proves little for an ordering race: repeat the in-process
# chaos soak so a journal/state interleaving bug fails loudly here.
echo "== zccd chaos soak, -race x10"
go test -race -count 10 -run TestChaosSoak ./internal/serve

echo "== fuzz seed corpora"
go test ./internal/swf ./internal/miso ./internal/tracebin -run '^Fuzz' -count=1

echo "== fuzz smoke (5s each)"
go test ./internal/swf -fuzz FuzzParse -fuzztime 5s
go test ./internal/miso -fuzz FuzzReadCSV -fuzztime 5s
go test ./internal/tracebin -fuzz FuzzDecodeBlock -fuzztime 5s
go test ./internal/tracebin -fuzz FuzzReadTrace -fuzztime 5s

echo "== same-seed faulted-run determinism"
tmpdir=$(mktemp -d)
zccdpid=""
chaospids=""
trap 'rm -rf "$tmpdir"; for p in $zccdpid $chaospids; do kill -9 "$p" 2>/dev/null || true; done' EXIT
go build -o "$tmpdir/zccsim" ./cmd/zccsim
for i in 1 2; do
	"$tmpdir/zccsim" -days 7 -mira-nodes 2048 -zc-factor 1 -zc-duty 0.5 \
		-kill-requeue -mtbf 12 -brownout 0.25 -forecast-err 0.5 -retry-limit 4 \
		-seed 7 -trace "$tmpdir/t$i.jsonl" >"$tmpdir/out$i.txt"
done
if ! cmp -s "$tmpdir/t1.jsonl" "$tmpdir/t2.jsonl"; then
	echo "faulted event traces differ between same-seed runs" >&2
	exit 1
fi
if ! cmp -s "$tmpdir/out1.txt" "$tmpdir/out2.txt"; then
	echo "faulted CLI output differs between same-seed runs" >&2
	exit 1
fi

echo "== binary trace round-trip fidelity"
# The same seeded run traced to .zct then exported must be byte-identical
# to the run traced straight to JSONL, and block-parallel zcctrace scans
# must produce exactly the sequential output on either format.
go build -o "$tmpdir/zcctrace" ./cmd/zcctrace
"$tmpdir/zccsim" -days 7 -mira-nodes 2048 -zc-factor 1 -zc-duty 0.5 \
	-kill-requeue -mtbf 12 -brownout 0.25 -forecast-err 0.5 -retry-limit 4 \
	-seed 7 -trace "$tmpdir/t3.zct" >/dev/null
"$tmpdir/zcctrace" export "$tmpdir/t3.zct" >"$tmpdir/t3.exported.jsonl"
if ! cmp -s "$tmpdir/t1.jsonl" "$tmpdir/t3.exported.jsonl"; then
	echo "zcctrace export of .zct differs from a direct JSONL trace" >&2
	exit 1
fi
"$tmpdir/zcctrace" summary -j 1 "$tmpdir/t3.zct" >"$tmpdir/sum.j1"
"$tmpdir/zcctrace" summary -j 4 "$tmpdir/t3.zct" >"$tmpdir/sum.j4"
"$tmpdir/zcctrace" summary "$tmpdir/t1.jsonl" >"$tmpdir/sum.jsonl"
if ! cmp -s "$tmpdir/sum.j1" "$tmpdir/sum.j4"; then
	echo "zcctrace summary -j 4 diverges from -j 1" >&2
	exit 1
fi
# Cross-format: identical below the header line, which names the input.
tail -n +2 "$tmpdir/sum.j1" >"$tmpdir/sum.j1.body"
tail -n +2 "$tmpdir/sum.jsonl" >"$tmpdir/sum.jsonl.body"
if ! cmp -s "$tmpdir/sum.j1.body" "$tmpdir/sum.jsonl.body"; then
	echo "zcctrace summary diverges between .zct and JSONL inputs" >&2
	exit 1
fi
"$tmpdir/zcctrace" series -step 6h -j 1 "$tmpdir/t3.zct" >"$tmpdir/ser.j1"
"$tmpdir/zcctrace" series -step 6h -j 4 "$tmpdir/t3.zct" >"$tmpdir/ser.j4"
if ! cmp -s "$tmpdir/ser.j1" "$tmpdir/ser.j4"; then
	echo "zcctrace series -j 4 diverges from -j 1" >&2
	exit 1
fi

echo "== snapshot pause-and-restore determinism"
"$tmpdir/zccsim" -days 7 -mira-nodes 2048 -zc-factor 1 -zc-duty 0.5 \
	-kill-requeue -mtbf 12 -brownout 0.25 -forecast-err 0.5 -retry-limit 4 \
	-seed 7 -check -snapshot "$tmpdir/s.json" -snapshot-at 3 >/dev/null
"$tmpdir/zccsim" -days 7 -mira-nodes 2048 -zc-factor 1 -zc-duty 0.5 \
	-kill-requeue -mtbf 12 -brownout 0.25 -forecast-err 0.5 -retry-limit 4 \
	-seed 7 -check -restore "$tmpdir/s.json" >"$tmpdir/restored.txt"
# drop the first line (workload summary vs restore banner); metrics must match
tail -n +2 "$tmpdir/out1.txt" >"$tmpdir/full.body"
tail -n +2 "$tmpdir/restored.txt" >"$tmpdir/restored.body"
if ! cmp -s "$tmpdir/full.body" "$tmpdir/restored.body"; then
	echo "restored run metrics differ from the uninterrupted run" >&2
	exit 1
fi

echo "== sweep interrupt-and-resume smoke test"
go build -o "$tmpdir/zccexp" ./cmd/zccexp
expflags="-quick -days 6 -market-days 10 -sites 12 -seed 5 -check -ids table1,fig5,table3 -markdown"
"$tmpdir/zccexp" $expflags -o "$tmpdir/uninterrupted.md" >/dev/null 2>&1
# interrupt the journaled sweep after 1 cell, then resume it
if "$tmpdir/zccexp" $expflags -o "$tmpdir/partial.md" \
	-run-dir "$tmpdir/sweep" -interrupt-after 1 >/dev/null 2>&1; then
	echo "interrupted sweep should exit nonzero" >&2
	exit 1
fi
"$tmpdir/zccexp" $expflags -o "$tmpdir/resumed.md" -resume "$tmpdir/sweep" >/dev/null 2>&1
# experiment tables must match; the telemetry summary counts per-process work
sed '/Telemetry summary/,$d' "$tmpdir/uninterrupted.md" >"$tmpdir/u.tables"
sed '/Telemetry summary/,$d' "$tmpdir/resumed.md" >"$tmpdir/r.tables"
if ! cmp -s "$tmpdir/u.tables" "$tmpdir/r.tables"; then
	echo "resumed sweep tables differ from the uninterrupted sweep" >&2
	exit 1
fi
# resuming under different flags must be refused
if "$tmpdir/zccexp" $expflags -seed 6 -resume "$tmpdir/sweep" >/dev/null 2>&1; then
	echo "resume with a different flag set was not refused" >&2
	exit 1
fi

echo "== live introspection endpoint smoke test"
# Start a run with -http on an ephemeral port (lingering after the run
# so the scrape can't race a fast finish), scrape /metrics and /status,
# and check both are well-formed.
"$tmpdir/zccsim" -days 28 -mira-nodes 2048 -zc-factor 1 -zc-duty 0.5 \
	-seed 7 -http 127.0.0.1:0 -http-linger 60s \
	>"$tmpdir/http.out" 2>"$tmpdir/http.err" &
simpid=$!
addr=""
for _ in $(seq 1 100); do
	addr=$(sed -n 's#.*introspection server on http://##p' "$tmpdir/http.err" | head -n 1)
	[ -n "$addr" ] && break
	if ! kill -0 "$simpid" 2>/dev/null; then break; fi
	sleep 0.05
done
if [ -z "$addr" ]; then
	echo "zccsim -http never reported a bound address" >&2
	cat "$tmpdir/http.err" >&2
	exit 1
fi
curl -fsS "http://$addr/metrics" >"$tmpdir/metrics.prom"
curl -fsS "http://$addr/status" >"$tmpdir/status.json"
# Let the simulation finish (a TERM mid-run would pause it), then end the
# linger early.
for _ in $(seq 1 600); do
	grep -q "run complete" "$tmpdir/http.err" && break
	kill -0 "$simpid" 2>/dev/null || break
	sleep 0.05
done
kill -TERM "$simpid" 2>/dev/null || true
wait "$simpid"
if ! grep -q '^# TYPE zccloud_' "$tmpdir/metrics.prom"; then
	echo "/metrics is not Prometheus text exposition:" >&2
	head "$tmpdir/metrics.prom" >&2
	exit 1
fi
if ! grep -q '"clock_days"' "$tmpdir/status.json"; then
	echo "/status has no live simulation sample:" >&2
	cat "$tmpdir/status.json" >&2
	exit 1
fi
# The -http run's stdout must match the default run's byte-for-byte:
# introspection must never perturb the simulation.
"$tmpdir/zccsim" -days 28 -mira-nodes 2048 -zc-factor 1 -zc-duty 0.5 \
	-seed 7 >"$tmpdir/nohttp.out"
if ! cmp -s "$tmpdir/http.out" "$tmpdir/nohttp.out"; then
	echo "-http changed simulation output" >&2
	diff "$tmpdir/nohttp.out" "$tmpdir/http.out" >&2 || true
	exit 1
fi

echo "== zccd serving daemon chaos soak"
scripts/soak.sh

echo "== zccd lifecycle telemetry smoke test"
# Start a debug-logging daemon, push one run through its whole
# lifecycle, and assert the run is reconstructable from structured logs
# by run_id alone, the sample ring serves history, and zcctop renders.
go build -o "$tmpdir/zccd" ./cmd/zccd
go build -o "$tmpdir/zcctop" ./cmd/zcctop
"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 1 -log-level debug \
	-sample-interval 100ms -data "$tmpdir/zccd-data" 2>"$tmpdir/zccd.log" &
zccdpid=$!
daddr=""
for _ in $(seq 1 100); do
	daddr=$(sed -n 's/.*msg=serving .*addr=\([^ ]*\).*/\1/p' "$tmpdir/zccd.log" | head -n 1)
	[ -n "$daddr" ] && break
	if ! kill -0 "$zccdpid" 2>/dev/null; then
		echo "zccd died on startup:" >&2
		cat "$tmpdir/zccd.log" >&2
		exit 1
	fi
	sleep 0.05
done
[ -n "$daddr" ] || { echo "zccd never logged its address" >&2; exit 1; }
runid=$(curl -fsS -XPOST "http://$daddr/v1/runs" \
	-d '{"days": 2, "mira_nodes": 2048}' | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$runid" ] || { echo "submit returned no run id" >&2; exit 1; }
state=""
for _ in $(seq 1 200); do
	state=$(curl -fsS "http://$daddr/v1/runs/$runid" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
	[ "$state" = "done" ] && break
	sleep 0.05
done
if [ "$state" != "done" ]; then
	echo "run $runid never completed (state: $state)" >&2
	cat "$tmpdir/zccd.log" >&2
	exit 1
fi
sleep 0.3 # let the sampler take a post-completion sample
# Every log line that names the run must carry it as run_id=<id>: the
# lifecycle greps out of the log stream by correlation key alone.
lifecycle=$(grep -c "run_id=$runid" "$tmpdir/zccd.log" || true)
if [ "$lifecycle" -lt 3 ]; then
	echo "only $lifecycle log lines carry run_id=$runid (want admitted/started/finished at least):" >&2
	cat "$tmpdir/zccd.log" >&2
	exit 1
fi
if grep "$runid" "$tmpdir/zccd.log" | grep -v "run_id=$runid" | grep -q .; then
	echo "log lines mention $runid without a run_id key:" >&2
	grep "$runid" "$tmpdir/zccd.log" | grep -v "run_id=$runid" >&2
	exit 1
fi
for m in "run admitted" "run started" "run finished"; do
	if ! grep "run_id=$runid" "$tmpdir/zccd.log" | grep -q "msg=\"$m\""; then
		echo "no \"$m\" log line for $runid" >&2
		cat "$tmpdir/zccd.log" >&2
		exit 1
	fi
done
# The time-series ring must have accumulated real history.
curl -fsS "http://$daddr/v1/timeseries" >"$tmpdir/ts.json"
samples=$(awk '/"times": \[/{f=1;next} f&&/\]/{exit} f{n++} END{print n+0}' "$tmpdir/ts.json")
if [ "$samples" -lt 2 ]; then
	echo "/v1/timeseries has $samples samples (want >= 2):" >&2
	cat "$tmpdir/ts.json" >&2
	exit 1
fi
# /metrics must expose the lifecycle histograms.
curl -fsS "http://$daddr/metrics" >"$tmpdir/zccd-metrics.prom"
for h in admission_wait_seconds queue_wait_seconds exec_seconds park_seconds; do
	if ! grep -q "zccloud_serve_${h}_bucket" "$tmpdir/zccd-metrics.prom"; then
		echo "/metrics is missing the serve.$h histogram" >&2
		exit 1
	fi
done
# The dashboard renders one frame against the live daemon and exits 0.
"$tmpdir/zcctop" -once -url "http://$daddr" >"$tmpdir/zcctop.out"
if ! grep -q "completed" "$tmpdir/zcctop.out"; then
	echo "zcctop -once frame looks empty:" >&2
	cat "$tmpdir/zcctop.out" >&2
	exit 1
fi
kill -TERM "$zccdpid"
wait "$zccdpid" || { echo "zccd drain exited nonzero" >&2; exit 1; }
zccdpid=""

echo "== netchaos flaky-link sweep smoke test"
# One agent reaches zccd only through a lossy netchaos proxy (added
# latency, 5% chunk drops). The sweep must still land exactly once per
# cell with tables byte-identical to a single-process run — the agent's
# retry policy, not luck, absorbs the faults.
go build -o "$tmpdir/zccagent" ./cmd/zccagent
go build -o "$tmpdir/netchaos" ./cmd/netchaos
"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 1 -data "$tmpdir/flaky-data" \
	2>"$tmpdir/flaky-zccd.err" &
zccdpid=$!
faddr=""
for _ in $(seq 1 100); do
	faddr=$(sed -n 's/.*msg=serving .*addr=\([^ ]*\).*/\1/p' "$tmpdir/flaky-zccd.err" | head -n 1)
	[ -n "$faddr" ] && break
	kill -0 "$zccdpid" 2>/dev/null || { cat "$tmpdir/flaky-zccd.err" >&2; exit 1; }
	sleep 0.05
done
[ -n "$faddr" ] || { echo "zccd never logged its address" >&2; exit 1; }
"$tmpdir/netchaos" -target "$faddr" -seed 7 -latency 1ms -drop 0.05 \
	>"$tmpdir/flaky-proxy.out" 2>&1 &
proxypid=$!
chaospids="$proxypid"
paddr=""
for _ in $(seq 1 100); do
	paddr=$(sed -n 's/.*msg=proxying addr=\([^ ]*\).*/\1/p' "$tmpdir/flaky-proxy.out" | head -n 1)
	[ -n "$paddr" ] && break
	kill -0 "$proxypid" 2>/dev/null || { cat "$tmpdir/flaky-proxy.out" >&2; exit 1; }
	sleep 0.05
done
[ -n "$paddr" ] || { echo "netchaos never reported its address" >&2; exit 1; }
"$tmpdir/zccagent" -server "http://$paddr" -name flaky -poll 50ms \
	2>"$tmpdir/flaky-agent.err" &
agentpid=$!
chaospids="$chaospids $agentpid"
flakycells="table1,table2,table4"
sweepid=$(curl -fsS -XPOST "http://$faddr/v1/sweeps" \
	-d "{\"experiments\": [$(echo "$flakycells" | sed 's/[^,]*/"&"/g')], \"seed\": 9, \"dir\": \"flaky\"}" |
	sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$sweepid" ] || { echo "flaky sweep submission failed" >&2; exit 1; }
swdone=0
for _ in $(seq 1 600); do
	flat=$(curl -s "http://$faddr/v1/sweeps/$sweepid" | tr -d ' \n\t')
	case $flat in
	*'"done":true'*)
		swdone=1
		break
		;;
	esac
	sleep 0.1
done
if [ "$swdone" -ne 1 ]; then
	echo "flaky-link sweep never finished; last view: ${flat:-}" >&2
	cat "$tmpdir/flaky-agent.err" >&2
	exit 1
fi
"$tmpdir/zccexp" -quick -seed 9 -ids "$flakycells" -run-dir "$tmpdir/flaky-cmp" -o /dev/null >/dev/null
for cell in $(echo "$flakycells" | tr ',' ' '); do
	nok=$(grep -c "\"id\":\"$cell\",\"status\":\"ok\"" "$tmpdir/flaky-data/sweeps/flaky/cells.jsonl" || true)
	if [ "$nok" -ne 1 ]; then
		echo "flaky-link cell $cell has $nok ok records, want exactly 1" >&2
		exit 1
	fi
	fleet_table=$(grep "\"id\":\"$cell\",\"status\":\"ok\"" "$tmpdir/flaky-data/sweeps/flaky/cells.jsonl" | sed 's/.*"table"://')
	solo_table=$(grep "\"id\":\"$cell\",\"status\":\"ok\"" "$tmpdir/flaky-cmp/cells.jsonl" | sed 's/.*"table"://')
	if [ -z "$fleet_table" ] || [ "$fleet_table" != "$solo_table" ]; then
		echo "flaky-link cell $cell: table diverges from single-process run" >&2
		exit 1
	fi
done
kill -TERM "$agentpid"
wait "$agentpid" || { echo "agent drain exited nonzero" >&2; cat "$tmpdir/flaky-agent.err" >&2; exit 1; }
kill -TERM "$zccdpid"
wait "$zccdpid" || { echo "zccd drain exited nonzero" >&2; exit 1; }
zccdpid=""
kill -TERM "$proxypid" 2>/dev/null || true
wait "$proxypid" 2>/dev/null || true
chaospids=""

echo "== disabled-instrumentation zero-alloc benchmarks"
out=$(go test ./internal/obs -run '^$' -bench 'BenchmarkNopTracer|BenchmarkNopLogger' -benchmem -benchtime 100x
	go test ./internal/admit -run '^$' -bench 'BenchmarkAdmitDecision' -benchmem -benchtime 100x)
echo "$out"
for b in BenchmarkNopTracer BenchmarkNopLogger BenchmarkAdmitDecision; do
	allocs=$(echo "$out" | awk -v b="$b" '$0 ~ b {for (i=1; i<=NF; i++) if ($i == "allocs/op") print $(i-1)}')
	if [ "$allocs" != "0" ]; then
		echo "$b allocates ($allocs allocs/op, want 0)" >&2
		exit 1
	fi
done

echo "== ok"

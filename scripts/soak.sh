#!/bin/sh
# Chaos soaks for the zccd serving daemon, driving real binaries.
#
# Daemon mode (default):  scripts/soak.sh [rounds]
#   Hammer zccd with concurrent submits (valid, faulted, long,
#   malformed), random cancels, then SIGTERM it mid-traffic. Asserts:
#
#   - the daemon exits 0 within the drain deadline;
#   - every accepted run's journal record ends in a terminal state;
#   - checkpointed runs left resumable snapshot files behind;
#   - a daemon restarted on the same data dir re-adopts exactly the
#     runs whose last journal state is checkpointed (/metrics), and
#     after a second SIGTERM every accepted run is terminal again;
#   - runs queued or running when a daemon is SIGKILLed (a long run
#     and two queued behind it, on a fresh data dir) are re-adopted from
#     runs.jsonl by a daemon restarted on that dir and all reach done.
#
# Agent mode:  scripts/soak.sh agents
#   Distributed-sweep chaos: start zccd with short fleet TTLs, spawn
#   three zccagent workers, submit a sweep, SIGKILL the agent holding
#   the longest cell mid-run. Asserts:
#
#   - the dead agent is reaped and its cell requeued (/metrics);
#   - every cell lands terminal with exactly one ok record (journal);
#   - the fleet's tables are byte-identical to a single-process
#     zccexp run of the same sweep;
#   - surviving agents and the daemon drain cleanly on SIGTERM.
#
# Power mode:  scripts/soak.sh power
#   Renewable-aware admission chaos: zccd follows a scripted
#   stranded-power schedule (time-compressed via -power-speed). A
#   feasible run is admitted and completes inside the window; a
#   deadline-infeasible submission during the dark gap is shed with a
#   Retry-After derived from the next window start; a park-policy
#   submission is accepted degraded, survives a SIGKILL + restart of
#   the daemon while the window is closed, and completes once the next
#   window opens. Asserts:
#
#   - the shed 429's Retry-After is window-scale, not the 1h cap;
#   - the parked run is re-adopted after the crash (log + /metrics);
#   - no accepted run ever lands failed (no mid-window kills);
#   - the daemon drains cleanly on SIGTERM.
#
# Restart mode:  scripts/soak.sh restart
#   Control-plane crash chaos: agents talk to zccd through a netchaos
#   proxy (latency + random connection drops), zccd is SIGKILLed
#   mid-sweep — no drain, no bookkeeping — and restarted on the same
#   address and data directory. Asserts:
#
#   - the restarted daemon re-adopts the open sweep from its registry
#     journal (log line);
#   - agents ride the outage on their retry policy, re-register, and
#     finish the sweep;
#   - every cell lands with exactly one ok record despite requeued
#     in-flight cells and fenced pre-crash tokens;
#   - tables are byte-identical to a single-process zccexp run;
#   - agents and the restarted daemon drain cleanly on SIGTERM.
set -eu
cd "$(dirname "$0")/.."

mode=${1:-3}
tmpdir=$(mktemp -d)
daemonpid=""
agentpids=""
proxypid=""
trap 'rm -rf "$tmpdir"; for p in $daemonpid $agentpids $proxypid; do kill -9 "$p" 2>/dev/null || true; done' EXIT

# wait_addr <stderr-log> <pid>: waits for the daemon's "serving" line
# and prints the bound address.
wait_addr() {
	_log=$1
	_pid=$2
	_addr=""
	for _ in $(seq 1 200); do
		_addr=$(sed -n 's/.*msg=serving .*addr=\([^ ]*\).*/\1/p' "$_log" | head -n 1)
		[ -n "$_addr" ] && break
		if ! kill -0 "$_pid" 2>/dev/null; then
			echo "daemon died on startup:" >&2
			cat "$_log" >&2
			exit 1
		fi
		sleep 0.05
	done
	if [ -z "$_addr" ]; then
		echo "daemon never reported its address" >&2
		cat "$_log" >&2
		exit 1
	fi
	printf '%s' "$_addr"
}

# flatjson <url>: fetches a pretty-printed JSON endpoint as one line so
# plain sh can grep it.
flatjson() {
	curl -s "$1" | tr -d ' \n\t'
}

if [ "$mode" = "agents" ]; then
	cells="table1,table2,table4,table5,table7,fig5,fig6,fig7,fig11"
	longcell="fig11" # the slowest cell: the one we SIGKILL an agent under

	echo "== build (zccd + zccagent + zccexp)"
	go build -o "$tmpdir/zccd" ./cmd/zccd
	go build -o "$tmpdir/zccagent" ./cmd/zccagent
	go build -o "$tmpdir/zccexp" ./cmd/zccexp

	echo "== start control plane (short fleet TTLs)"
	"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 2 -data "$tmpdir/data" \
		-agent-ttl 2s -lease-ttl 3s -fleet-backoff 200ms -fleet-backoff-cap 1s \
		2>"$tmpdir/zccd.err" &
	daemonpid=$!
	addr=$(wait_addr "$tmpdir/zccd.err" "$daemonpid")
	echo "daemon at $addr (pid $daemonpid)"

	echo "== start 3 agents"
	for i in 1 2 3; do
		"$tmpdir/zccagent" -server "http://$addr" -name "agent$i" -poll 50ms \
			2>"$tmpdir/agent$i.err" &
		eval "apid$i=$!"
		agentpids="$agentpids $!"
	done

	echo "== submit sweep ($cells)"
	curl -s -o "$tmpdir/sweep.json" -XPOST "http://$addr/v1/sweeps" \
		-d "{\"experiments\": [$(echo "$cells" | sed 's/[^,]*/"&"/g')], \"seed\": 42, \"dir\": \"chaos\"}"
	sweepid=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$tmpdir/sweep.json" | head -n 1)
	if [ -z "$sweepid" ]; then
		echo "sweep submission failed:" >&2
		cat "$tmpdir/sweep.json" >&2
		exit 1
	fi
	echo "sweep $sweepid"

	echo "== SIGKILL the agent holding $longcell"
	victim=""
	for _ in $(seq 1 400); do
		flat=$(flatjson "http://$addr/v1/sweeps/$sweepid")
		holder=$(printf '%s' "$flat" |
			grep -o "\"id\":\"$longcell\",\"state\":\"leased\"[^}]*" |
			sed -n 's/.*"agent":"\([^"]*\)".*/\1/p')
		if [ -n "$holder" ]; then
			aflat=$(flatjson "http://$addr/v1/agents")
			victim=$(printf '%s' "$aflat" |
				grep -o "\"id\":\"$holder\",\"name\":\"[^\"]*\"" |
				sed 's/.*"name":"\([^"]*\)".*/\1/')
			break
		fi
		case $flat in
		*'"done":true'*)
			echo "sweep finished before chaos could be injected; $longcell too fast" >&2
			exit 1
			;;
		esac
		sleep 0.02
	done
	if [ -z "$victim" ]; then
		echo "no agent ever held $longcell" >&2
		exit 1
	fi
	case $victim in
	agent1) kill -9 "$apid1" ;;
	agent2) kill -9 "$apid2" ;;
	agent3) kill -9 "$apid3" ;;
	*)
		echo "unknown victim '$victim'" >&2
		exit 1
		;;
	esac
	echo "killed $victim (held $longcell under agent id $holder)"

	echo "== wait for the survivors to finish the sweep"
	swdone=0
	for _ in $(seq 1 600); do
		flat=$(flatjson "http://$addr/v1/sweeps/$sweepid")
		case $flat in
		*'"done":true'*)
			swdone=1
			break
			;;
		esac
		sleep 0.1
	done
	if [ "$swdone" -ne 1 ]; then
		echo "sweep never finished; last view: $flat" >&2
		cat "$tmpdir/zccd.err" >&2
		exit 1
	fi
	case $flat in
	*'"abandoned":0'*) ;;
	*)
		echo "sweep abandoned cells: $flat" >&2
		exit 1
		;;
	esac

	echo "== invariants: reap + requeue visible in /metrics"
	curl -s "http://$addr/metrics" >"$tmpdir/metrics.txt"
	reaped=$(sed -n 's/^[a-z_]*fleet_agents_reaped \([0-9][0-9]*\)$/\1/p' "$tmpdir/metrics.txt")
	requeues=$(sed -n 's/^[a-z_]*fleet_requeues \([0-9][0-9]*\)$/\1/p' "$tmpdir/metrics.txt")
	if [ "${reaped:-0}" -lt 1 ] || [ "${requeues:-0}" -lt 1 ]; then
		echo "metrics show reaped=$reaped requeues=$requeues; want both >= 1" >&2
		exit 1
	fi

	echo "== invariants: every cell terminal exactly once"
	journal="$tmpdir/data/sweeps/chaos/cells.jsonl"
	[ -f "$journal" ] || { echo "no sweep journal at $journal" >&2; exit 1; }
	for cell in $(echo "$cells" | tr ',' ' '); do
		nok=$(grep -c "\"id\":\"$cell\",\"status\":\"ok\"" "$journal" || true)
		if [ "$nok" -ne 1 ]; then
			echo "cell $cell has $nok ok records, want exactly 1" >&2
			grep "\"id\":\"$cell\"" "$journal" >&2 || true
			exit 1
		fi
	done

	echo "== invariants: tables match a single-process run"
	"$tmpdir/zccexp" -quick -seed 42 -ids "$cells" -run-dir "$tmpdir/cmp" -o /dev/null
	for cell in $(echo "$cells" | tr ',' ' '); do
		fleet_table=$(grep "\"id\":\"$cell\",\"status\":\"ok\"" "$journal" | tail -n 1 | sed 's/.*"table"://')
		solo_table=$(grep "\"id\":\"$cell\",\"status\":\"ok\"" "$tmpdir/cmp/cells.jsonl" | tail -n 1 | sed 's/.*"table"://')
		if [ -z "$fleet_table" ] || [ "$fleet_table" != "$solo_table" ]; then
			echo "cell $cell: fleet table diverges from single-process run" >&2
			echo "fleet: $fleet_table" >&2
			echo "solo:  $solo_table" >&2
			exit 1
		fi
	done

	echo "== drain survivors and daemon"
	for i in 1 2 3; do
		[ "agent$i" = "$victim" ] && continue
		eval "apid=\$apid$i"
		kill -TERM "$apid"
		wait "$apid" && arc=0 || arc=$?
		if [ "$arc" -ne 0 ]; then
			echo "agent$i exited $arc, want 0; stderr:" >&2
			cat "$tmpdir/agent$i.err" >&2
			exit 1
		fi
	done
	kill -TERM "$daemonpid"
	wait "$daemonpid" && rc=0 || rc=$?
	daemonpid=""
	agentpids=""
	if [ "$rc" -ne 0 ]; then
		echo "daemon exited $rc, want 0; stderr:" >&2
		cat "$tmpdir/zccd.err" >&2
		exit 1
	fi
	echo "reaped=$reaped requeues=$requeues; all cells exactly-once and byte-identical"
	echo "== ok"
	exit 0
fi

if [ "$mode" = "power" ]; then
	echo "== build (zccd)"
	go build -o "$tmpdir/zccd" ./cmd/zccd

	# Schedule (schedule seconds, played at 10x): window A [0,30),
	# a dark gap [30,80), then a long window B [80,2000). Wall clock:
	# A is 0-3s after boot, the gap 3-8s, B from 8s on.
	printf 'start,end\n0,30\n80,2000\n' >"$tmpdir/sched.csv"
	power_flags="-power-trace $tmpdir/sched.csv -power-policy shed -power-speed 10 -power-tick 50ms"

	echo "== start daemon on the scripted power schedule"
	# shellcheck disable=SC2086
	"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 2 -data "$tmpdir/data" \
		$power_flags 2>"$tmpdir/zccd.err" &
	daemonpid=$!
	addr=$(wait_addr "$tmpdir/zccd.err" "$daemonpid")
	echo "daemon at $addr (pid $daemonpid)"

	echo "== window A open: a feasible run is admitted and completes"
	code=$(curl -s -o "$tmpdir/feasible.json" -w '%{http_code}' -XPOST "http://$addr/v1/runs" \
		-d '{"days": 2, "mira_nodes": 4096, "deadline_seconds": 3600, "cost_hint_seconds": 5}')
	if [ "$code" != "202" ]; then
		echo "feasible submit = $code, want 202:" >&2
		cat "$tmpdir/feasible.json" >&2
		exit 1
	fi
	fid=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$tmpdir/feasible.json" | head -n 1)
	fdone=0
	for _ in $(seq 1 100); do
		case $(flatjson "http://$addr/v1/runs/$fid") in
		*'"state":"done"'*)
			fdone=1
			break
			;;
		esac
		sleep 0.05
	done
	if [ "$fdone" -ne 1 ]; then
		echo "feasible run $fid never completed inside the window" >&2
		cat "$tmpdir/zccd.err" >&2
		exit 1
	fi

	echo "== wait for the dark gap"
	closed=0
	for _ in $(seq 1 200); do
		case $(flatjson "http://$addr/status") in
		*'"window_open":false'*)
			closed=1
			break
			;;
		esac
		sleep 0.05
	done
	[ "$closed" -eq 1 ] || { echo "power window never closed" >&2; exit 1; }

	echo "== gap: deadline-infeasible submission is shed with a window-derived Retry-After"
	code=$(curl -s -D "$tmpdir/shed.hdr" -o "$tmpdir/shed.json" -w '%{http_code}' \
		-XPOST "http://$addr/v1/runs" \
		-d '{"days": 2, "mira_nodes": 4096, "deadline_seconds": 2, "cost_hint_seconds": 60}')
	if [ "$code" != "429" ]; then
		echo "infeasible submit = $code, want 429:" >&2
		cat "$tmpdir/shed.json" >&2
		exit 1
	fi
	ra=$(sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9]*\).*/\1/p' "$tmpdir/shed.hdr" | head -n 1)
	# The gap is <= 5 wall seconds wide; with jitter the hint must stay
	# window-scale (a handful of seconds), never the 3600 s power cap.
	if [ -z "$ra" ] || [ "$ra" -lt 1 ] || [ "$ra" -gt 15 ]; then
		echo "shed Retry-After = '$ra', want window-derived seconds in [1, 15]" >&2
		exit 1
	fi

	echo "== gap: a park-policy submission is accepted degraded"
	# Padded cost (300 wall s x speed 10 x 1.2 safety = 3600 schedule s)
	# exceeds window B's 1920 schedule seconds, so the run cannot be
	# admitted outright; the 600 s wall deadline leaves plenty of room to
	# finish once the window opens and the run is resubmitted.
	code=$(curl -s -o "$tmpdir/park.json" -w '%{http_code}' -XPOST "http://$addr/v1/runs" \
		-d '{"days": 2, "mira_nodes": 4096, "deadline_seconds": 600, "cost_hint_seconds": 300, "power_policy": "park"}')
	if [ "$code" != "202" ]; then
		echo "park submit = $code, want 202:" >&2
		cat "$tmpdir/park.json" >&2
		exit 1
	fi
	pid=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$tmpdir/park.json" | head -n 1)
	case $(flatjson "http://$addr/v1/runs/$pid") in
	*'"state":"parked-for-power"'*) ;;
	*)
		echo "park run $pid not in parked-for-power state" >&2
		exit 1
		;;
	esac
	# runs.jsonl is the durable record: the run's last line is the park,
	# and it carries the spec a restart re-adopts the run from.
	[ ! -d "$tmpdir/data/parked" ] || {
		echo "the park created a parked/ directory" >&2
		exit 1
	}
	rec=$(grep "\"run\":\"$pid\"" "$tmpdir/data/runs.jsonl" | tail -n 1)
	case $rec in
	*'"state":"parked-for-power"'*'"spec":{'*) ;;
	*)
		echo "no durable parked record for $pid in runs.jsonl: $rec" >&2
		exit 1
		;;
	esac

	echo "== SIGKILL zccd with the run parked and the window still closed"
	kill -9 "$daemonpid"
	echo "killed zccd (pid $daemonpid)"

	echo "== restart zccd on the same schedule and data directory"
	# shellcheck disable=SC2086
	"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 2 -data "$tmpdir/data" \
		$power_flags 2>"$tmpdir/zccd2.err" &
	daemonpid=$!
	addr=$(wait_addr "$tmpdir/zccd2.err" "$daemonpid")
	echo "daemon back at $addr (pid $daemonpid)"
	if ! grep -q 'msg="parked run re-adopted"' "$tmpdir/zccd2.err"; then
		echo "restarted daemon never re-adopted the parked run:" >&2
		cat "$tmpdir/zccd2.err" >&2
		exit 1
	fi

	echo "== parked run completes once window B opens"
	pdone=0
	for _ in $(seq 1 400); do
		case $(flatjson "http://$addr/v1/runs/$pid") in
		*'"state":"done"'*)
			pdone=1
			break
			;;
		esac
		sleep 0.05
	done
	if [ "$pdone" -ne 1 ]; then
		echo "parked run $pid never completed; last: $(flatjson "http://$addr/v1/runs/$pid")" >&2
		cat "$tmpdir/zccd2.err" >&2
		exit 1
	fi

	echo "== invariants: re-adoption and resubmission visible in /metrics"
	curl -s "http://$addr/metrics" >"$tmpdir/metrics.txt"
	readopted=$(sed -n 's/^[a-z_]*power_readopted \([0-9][0-9]*\)$/\1/p' "$tmpdir/metrics.txt")
	resubmitted=$(sed -n 's/^[a-z_]*power_resubmitted \([0-9][0-9]*\)$/\1/p' "$tmpdir/metrics.txt")
	if [ "${readopted:-0}" -lt 1 ] || [ "${resubmitted:-0}" -lt 1 ]; then
		echo "metrics show readopted=$readopted resubmitted=$resubmitted; want both >= 1" >&2
		exit 1
	fi

	echo "== invariants: no accepted run failed (no mid-window kills)"
	journal="$tmpdir/data/runs.jsonl"
	[ -f "$journal" ] || { echo "no run journal at $journal" >&2; exit 1; }
	nfailed=$(grep -c '"state":"failed"' "$journal" || true)
	if [ "$nfailed" -ne 0 ]; then
		echo "journal has $nfailed failed runs; power control must not kill work" >&2
		grep '"state":"failed"' "$journal" >&2
		exit 1
	fi

	echo "== drain"
	kill -TERM "$daemonpid"
	wait "$daemonpid" && rc=0 || rc=$?
	daemonpid=""
	if [ "$rc" -ne 0 ]; then
		echo "daemon exited $rc, want 0; stderr:" >&2
		cat "$tmpdir/zccd2.err" >&2
		exit 1
	fi
	echo "shed Retry-After=${ra}s (window-derived); parked run survived SIGKILL and completed"
	echo "== ok"
	exit 0
fi

if [ "$mode" = "restart" ]; then
	cells="table1,table2,table4,table5,table7,fig5,fig6,fig7,fig11"

	echo "== build (zccd + zccagent + zccexp + netchaos)"
	go build -o "$tmpdir/zccd" ./cmd/zccd
	go build -o "$tmpdir/zccagent" ./cmd/zccagent
	go build -o "$tmpdir/zccexp" ./cmd/zccexp
	go build -o "$tmpdir/netchaos" ./cmd/netchaos

	echo "== start control plane (short fleet TTLs)"
	"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 2 -data "$tmpdir/data" \
		-agent-ttl 2s -lease-ttl 3s -fleet-backoff 200ms -fleet-backoff-cap 1s \
		2>"$tmpdir/zccd.err" &
	daemonpid=$!
	addr=$(wait_addr "$tmpdir/zccd.err" "$daemonpid")
	echo "daemon at $addr (pid $daemonpid)"

	echo "== start netchaos proxy between agents and daemon"
	"$tmpdir/netchaos" -target "$addr" -seed 42 -latency 2ms -jitter 3ms -drop 0.02 \
		>"$tmpdir/chaos.out" 2>&1 &
	proxypid=$!
	proxyaddr=""
	for _ in $(seq 1 100); do
		proxyaddr=$(sed -n 's/.*msg=proxying addr=\([^ ]*\).*/\1/p' "$tmpdir/chaos.out" | head -n 1)
		[ -n "$proxyaddr" ] && break
		if ! kill -0 "$proxypid" 2>/dev/null; then
			echo "netchaos died on startup:" >&2
			cat "$tmpdir/chaos.out" >&2
			exit 1
		fi
		sleep 0.05
	done
	[ -n "$proxyaddr" ] || { echo "netchaos never reported its address" >&2; exit 1; }
	echo "chaos proxy at $proxyaddr -> $addr (latency 2ms±3ms, drop 2%)"

	echo "== start 2 agents through the proxy"
	for i in 1 2; do
		"$tmpdir/zccagent" -server "http://$proxyaddr" -name "agent$i" \
			-poll 50ms -parallel 2 2>"$tmpdir/agent$i.err" &
		agentpids="$agentpids $!"
	done

	echo "== submit sweep ($cells)"
	curl -s -o "$tmpdir/sweep.json" -XPOST "http://$addr/v1/sweeps" \
		-d "{\"experiments\": [$(echo "$cells" | sed 's/[^,]*/"&"/g')], \"seed\": 42, \"dir\": \"chaos\"}"
	sweepid=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$tmpdir/sweep.json" | head -n 1)
	if [ -z "$sweepid" ]; then
		echo "sweep submission failed:" >&2
		cat "$tmpdir/sweep.json" >&2
		exit 1
	fi
	echo "sweep $sweepid"

	echo "== SIGKILL zccd after the first completion, mid-sweep"
	killed=0
	for _ in $(seq 1 600); do
		flat=$(flatjson "http://$addr/v1/sweeps/$sweepid")
		case $flat in
		*'"done":true'*)
			echo "sweep finished before the kill; not enough work in flight" >&2
			exit 1
			;;
		*'"completed":0'*) ;;
		*'"completed":'*)
			killed=1
			break
			;;
		esac
		sleep 0.02
	done
	if [ "$killed" -ne 1 ]; then
		echo "no cell completed before the kill window closed" >&2
		exit 1
	fi
	kill -9 "$daemonpid"
	echo "killed zccd (pid $daemonpid) with leases in flight"

	echo "== restart zccd on the same address and data directory"
	"$tmpdir/zccd" -addr "$addr" -workers 2 -data "$tmpdir/data" \
		-agent-ttl 2s -lease-ttl 3s -fleet-backoff 200ms -fleet-backoff-cap 1s \
		2>"$tmpdir/zccd2.err" &
	daemonpid=$!
	wait_addr "$tmpdir/zccd2.err" "$daemonpid" >/dev/null
	echo "daemon back at $addr (pid $daemonpid)"

	if ! grep -q 'msg="sweep re-adopted"' "$tmpdir/zccd2.err"; then
		echo "restarted daemon never re-adopted the sweep:" >&2
		cat "$tmpdir/zccd2.err" >&2
		exit 1
	fi

	echo "== wait for the re-adopted sweep to finish"
	swdone=0
	for _ in $(seq 1 600); do
		flat=$(flatjson "http://$addr/v1/sweeps/$sweepid")
		case $flat in
		*'"done":true'*)
			swdone=1
			break
			;;
		esac
		sleep 0.1
	done
	if [ "$swdone" -ne 1 ]; then
		echo "sweep never finished after restart; last view: $flat" >&2
		cat "$tmpdir/zccd2.err" >&2
		cat "$tmpdir/agent1.err" >&2
		exit 1
	fi
	case $flat in
	*'"abandoned":0'*) ;;
	*)
		echo "sweep abandoned cells after restart: $flat" >&2
		exit 1
		;;
	esac

	echo "== invariants: every cell terminal exactly once across both incarnations"
	journal="$tmpdir/data/sweeps/chaos/cells.jsonl"
	[ -f "$journal" ] || { echo "no sweep journal at $journal" >&2; exit 1; }
	for cell in $(echo "$cells" | tr ',' ' '); do
		nok=$(grep -c "\"id\":\"$cell\",\"status\":\"ok\"" "$journal" || true)
		if [ "$nok" -ne 1 ]; then
			echo "cell $cell has $nok ok records, want exactly 1" >&2
			grep "\"id\":\"$cell\"" "$journal" >&2 || true
			exit 1
		fi
	done

	echo "== invariants: tables match a single-process run"
	"$tmpdir/zccexp" -quick -seed 42 -ids "$cells" -run-dir "$tmpdir/cmp" -o /dev/null
	for cell in $(echo "$cells" | tr ',' ' '); do
		fleet_table=$(grep "\"id\":\"$cell\",\"status\":\"ok\"" "$journal" | tail -n 1 | sed 's/.*"table"://')
		solo_table=$(grep "\"id\":\"$cell\",\"status\":\"ok\"" "$tmpdir/cmp/cells.jsonl" | tail -n 1 | sed 's/.*"table"://')
		if [ -z "$fleet_table" ] || [ "$fleet_table" != "$solo_table" ]; then
			echo "cell $cell: fleet table diverges from single-process run" >&2
			echo "fleet: $fleet_table" >&2
			echo "solo:  $solo_table" >&2
			exit 1
		fi
	done

	echo "== drain agents and the restarted daemon"
	for p in $agentpids; do
		kill -TERM "$p"
		wait "$p" && arc=0 || arc=$?
		if [ "$arc" -ne 0 ]; then
			echo "an agent exited $arc, want 0; stderr:" >&2
			cat "$tmpdir"/agent*.err >&2
			exit 1
		fi
	done
	kill -TERM "$daemonpid"
	wait "$daemonpid" && rc=0 || rc=$?
	daemonpid=""
	agentpids=""
	kill -TERM "$proxypid" 2>/dev/null || true
	wait "$proxypid" 2>/dev/null || true
	proxypid=""
	if [ "$rc" -ne 0 ]; then
		echo "restarted daemon exited $rc, want 0; stderr:" >&2
		cat "$tmpdir/zccd2.err" >&2
		exit 1
	fi
	echo "survived SIGKILL + restart: re-adopted, exactly-once, byte-identical"
	echo "== ok"
	exit 0
fi

rounds=$mode

echo "== build"
go build -o "$tmpdir/zccd" ./cmd/zccd

echo "== start daemon"
"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 4 -queue 8 \
	-drain-grace 2s -data "$tmpdir/data" 2>"$tmpdir/zccd.err" &
daemonpid=$!
addr=$(wait_addr "$tmpdir/zccd.err" "$daemonpid")
echo "daemon at $addr (pid $daemonpid)"

# The chaos mix: quick runs, a faulted+checked run, a long run the drain
# will land on, an experiment, and garbage the API must 400.
spec_for() {
	case $(( $1 % 5 )) in
	0) echo '{"days": 2, "mira_nodes": 4096}' ;;
	1) echo '{"days": 3, "mira_nodes": 4096, "zc_factor": 1, "kill_requeue": true, "mtbf_hours": 12, "retry_limit": 3, "backoff_hours": 1, "backoff_jitter": true, "check": true}' ;;
	2) echo '{"days": 3650, "mira_nodes": 4096, "scale": 4}' ;;
	3) echo '{"experiment": "table5"}' ;;
	4) echo '{"bogus": 1}' ;;
	esac
}

echo "== chaos traffic ($rounds rounds x 4 clients)"
for c in 1 2 3 4; do
	(
		i=0
		while [ "$i" -lt "$rounds" ]; do
			body=$(spec_for $((c + i)))
			code=$(curl -s -o "$tmpdir/resp.$c.$i" -w '%{http_code}' \
				-XPOST "http://$addr/v1/runs" -d "$body" || echo 000)
			case $code in
			202)
				id=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$tmpdir/resp.$c.$i" | head -n 1)
				echo "$id" >>"$tmpdir/accepted.$c"
				# every third accepted run gets a cancel attempt
				if [ $(( (c + i) % 3 )) -eq 0 ]; then
					curl -s -o /dev/null -XDELETE "http://$addr/v1/runs/$id" || true
				fi
				;;
			400|429|503|000) ;; # refused, shed, draining, or torn down: fine
			*)
				echo "client $c: unexpected status $code for $body" >&2
				exit 1
				;;
			esac
			i=$((i + 1))
		done
	) &
done

# SIGTERM lands while clients are still firing.
sleep 1
echo "== SIGTERM mid-traffic"
kill -TERM "$daemonpid"
wait "$daemonpid" && rc=0 || rc=$?
daemonpid=""
wait # clients
if [ "$rc" -ne 0 ]; then
	echo "daemon exited $rc, want 0; stderr:" >&2
	cat "$tmpdir/zccd.err" >&2
	exit 1
fi

echo "== invariants"
journal="$tmpdir/data/runs.jsonl"
if [ ! -f "$journal" ]; then
	echo "no run journal at $journal" >&2
	exit 1
fi
cat "$tmpdir"/accepted.* 2>/dev/null | sort -u >"$tmpdir/accepted.all" || true
naccepted=$(wc -l <"$tmpdir/accepted.all")
if [ "$naccepted" -eq 0 ]; then
	echo "soak accepted no runs; traffic mix too hostile" >&2
	exit 1
fi
# last_state <id>: the run's final state in the journal.
last_state() {
	grep "\"run\":\"$1\"" "$journal" | tail -n 1 | sed -n 's/.*"state":"\([^"]*\)".*/\1/p'
}
# check_terminal: every accepted run's last journal record is terminal.
check_terminal() {
	_bad=0
	while read -r id; do
		[ -n "$id" ] || continue
		final=$(last_state "$id")
		case $final in
		done|failed|cancelled|checkpointed) ;;
		*)
			echo "run $id final journal state '$final' not terminal" >&2
			_bad=1
			;;
		esac
	done <"$tmpdir/accepted.all"
	[ "$_bad" -eq 0 ] || exit 1
}
check_terminal

nckpt=$(grep -c '"state":"checkpointed"' "$journal" || true)
nsnap=$(ls "$tmpdir/data"/*.snapshot.json 2>/dev/null | wc -l)
if [ "$nckpt" -gt 0 ] && [ "$nsnap" -eq 0 ]; then
	echo "journal has $nckpt checkpointed runs but no snapshot files" >&2
	exit 1
fi
echo "accepted $naccepted runs, all terminal ($nckpt checkpointed, $nsnap snapshots)"

echo "== restart on the same data dir: checkpointed runs are re-adopted"
# Runs whose last journal state is checkpointed, counted before the
# successor appends to the journal.
sed -n 's/.*"run":"\([^"]*\)".*/\1/p' "$journal" | sort -u >"$tmpdir/journaled"
nlastckpt=0
while read -r id; do
	[ "$(last_state "$id")" = checkpointed ] && nlastckpt=$((nlastckpt + 1))
done <"$tmpdir/journaled"
"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 4 -queue 8 \
	-drain-grace 2s -data "$tmpdir/data" 2>"$tmpdir/zccd2.err" &
daemonpid=$!
addr=$(wait_addr "$tmpdir/zccd2.err" "$daemonpid")
readopted=$(curl -fsS "http://$addr/metrics" |
	sed -n 's/^[a-z_]*power_readopted \([0-9][0-9]*\)$/\1/p')
if [ "${readopted:-0}" -ne "$nlastckpt" ]; then
	echo "restarted daemon re-adopted ${readopted:-0} runs, want $nlastckpt (last state checkpointed)" >&2
	cat "$tmpdir/zccd2.err" >&2
	exit 1
fi
# The long runs resume; no need to wait for them to finish.
sleep 1
echo "== SIGTERM the restarted daemon"
kill -TERM "$daemonpid"
wait "$daemonpid" && rc=0 || rc=$?
daemonpid=""
if [ "$rc" -ne 0 ]; then
	echo "restarted daemon exited $rc, want 0; stderr:" >&2
	cat "$tmpdir/zccd2.err" >&2
	exit 1
fi
check_terminal
echo "re-adopted $readopted checkpointed runs; all accepted runs terminal again"

echo "== SIGKILL with runs queued and running: a restart completes them"
# One worker: the ~4 s run is running at the kill, the short ones queued.
killdata="$tmpdir/killdata"
"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 1 -data "$killdata" 2>"$tmpdir/zccd3.err" &
daemonpid=$!
addr=$(wait_addr "$tmpdir/zccd3.err" "$daemonpid")
: >"$tmpdir/killed"
for body in '{"days": 3650, "mira_nodes": 4096, "scale": 3.3}' \
	'{"days": 2, "mira_nodes": 4096}' '{"days": 3, "mira_nodes": 4096, "zc_factor": 1}'; do
	code=$(curl -s -o "$tmpdir/kill.json" -w '%{http_code}' -XPOST "http://$addr/v1/runs" -d "$body")
	if [ "$code" != "202" ]; then
		echo "submit = $code, want 202: $(cat "$tmpdir/kill.json")" >&2
		exit 1
	fi
	sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$tmpdir/kill.json" | head -n 1 >>"$tmpdir/killed"
done
longid=$(head -n 1 "$tmpdir/killed")
started=0
for _ in $(seq 1 200); do
	case $(flatjson "http://$addr/v1/runs/$longid") in
	*'"state":"running"'*)
		started=1
		break
		;;
	esac
	sleep 0.02
done
[ "$started" -eq 1 ] || { echo "run $longid never started" >&2; exit 1; }
kill -9 "$daemonpid"
wait "$daemonpid" 2>/dev/null || true
daemonpid=""
journal="$killdata/runs.jsonl"
while read -r id; do
	case $(last_state "$id") in
	queued|running) ;;
	*)
		echo "run $id last journal state at SIGKILL '$(last_state "$id")', want queued or running" >&2
		exit 1
		;;
	esac
done <"$tmpdir/killed"
"$tmpdir/zccd" -addr 127.0.0.1:0 -workers 1 -data "$killdata" 2>"$tmpdir/zccd4.err" &
daemonpid=$!
addr=$(wait_addr "$tmpdir/zccd4.err" "$daemonpid")
while read -r id; do
	rdone=0
	for _ in $(seq 1 1200); do
		case $(flatjson "http://$addr/v1/runs/$id") in
		*'"state":"done"'*)
			rdone=1
			break
			;;
		esac
		sleep 0.05
	done
	if [ "$rdone" -ne 1 ]; then
		echo "run $id never reached done after the restart; last: $(flatjson "http://$addr/v1/runs/$id")" >&2
		cat "$tmpdir/zccd4.err" >&2
		exit 1
	fi
done <"$tmpdir/killed"
readopted=$(curl -fsS "http://$addr/metrics" |
	sed -n 's/^[a-z_]*power_readopted \([0-9][0-9]*\)$/\1/p')
nkilled=$(wc -l <"$tmpdir/killed")
if [ "${readopted:-0}" -ne "$nkilled" ]; then
	echo "restarted daemon re-adopted ${readopted:-0} runs, want $nkilled" >&2
	exit 1
fi
kill -TERM "$daemonpid"
wait "$daemonpid" && rc=0 || rc=$?
daemonpid=""
if [ "$rc" -ne 0 ]; then
	echo "daemon restarted after SIGKILL exited $rc, want 0; stderr:" >&2
	cat "$tmpdir/zccd4.err" >&2
	exit 1
fi
echo "$nkilled runs queued or running at SIGKILL re-adopted and done"
echo "== ok"

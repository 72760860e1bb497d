#!/bin/sh
# scripts/check.sh — the tier-1 gate (see ROADMAP.md).
#
# Runs, in order:
#   1. gofmt -l          over the tree — unformatted files fail the gate
#   2. go vet            over every package
#   3. go build          over every package
#   4. the metric-name lint: every declared metric family keeps the
#      autoglobe_ namespace and a conventional unit suffix
#   5. go test -race -json ./...  the full suite under the race
#      detector, once (exercises the parallel sweep engine, the shared
#      compiled rule bases, the simulator-isolation tests and the
#      control-plane transports concurrently; plain `go test` also
#      replays every fuzz target over its checked-in seed corpus)
#   6. the named gates, read from the events of that one run. Each gate
#      lists test-name patterns per package; a pattern that matches no
#      passing top-level test fails its gate, so a renamed or skipped
#      acceptance test cannot pass silently:
#      - observability: internal/obs, including the Prometheus
#        exposition golden test
#      - robustness: the fixed-seed chaos convergence run, both journal
#        crash-point sweeps (single-record and group-committed batch
#        appends), and the journal and wire fuzz seed corpora — a
#        decoder regression against a known-bad frame (torn tail, bit
#        flip, lying length) fails the gate even when no new fuzzing
#        is run
#      - archive: the tsdb crash-point sweeps (every torn-tail byte
#        boundary across data, dictionary and compaction records), the
#        tsdb record-decoder fuzz seeds, and the simulator-level
#        backed-run recovery test (a full day's day profiles must come
#        back byte-identical after crash-and-reopen)
#      - dispatch: the concurrent fan-out stress (per-host lanes under
#        injected faults and competing callers), group commit, and the
#        worker-count byte-identity proof — the claim that
#        DispatchConfig.Workers is purely a throughput knob
#      - rules: the versioned rule registry, the controller's hot-swap
#        and shadow-evaluation tests (swap under concurrent inference,
#        perturbed-candidate diffing), the coordinator rule-push and
#        journal-recovery tests, the simulator-level swap/shadow/
#        rules-dir runs, and the rule-parser fuzz seeds (the multi-line
#        grammar and the String→Parse round trip the registry depends
#        on)
#      - HA: the lease tracker, the in-process election tests
#        (lease-expiry takeover, isolated-leader fencing), the
#        leader-death crash-point sweep (WarmReplay + Takeover at every
#        journal byte boundary), the agent-side graceful-degradation
#        tests (bounded heartbeat ring, bounded send retry), and the
#        full-day failover acceptance run (≥3 seeded leader kills plus
#        a split-brain drill must converge byte-identically to the
#        fault-free landscape)
#      - selection: byte-identity proofs for the server-selection access
#        paths — the placement index vs the full-cluster scan
#        (including the 10k-step randomized mutation property test) and
#        parallel candidate scoring at 1 and 8 workers — the claim that
#        the index and SelectionWorkers never change a decision
#   7. the perf gate: the zero-allocation guardrails on the steady-state
#      heartbeat, dispatch, inference-after-hot-swap, server-selection,
#      archive append and forecast read paths (race-free runs, because
#      race instrumentation allocates inside sync.Pool — the tests skip
#      themselves under -race), and short smoke runs of the inference
#      fast-path, 1,000-host ingest, single-action dispatch, 1,000-host
#      fan-out, 1,000-host server selection and tsdb append/hot-read
#      benchmarks, so a regression that breaks the compiled path, the
#      pooled codec, the sharded merge, the pooled dispatch path, the
#      indexed selection path or the pooled segment buffers shows up
#      even when no test asserts on speed
#
# Usage: scripts/check.sh   (from the repository root)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l cmd internal ./*.go)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# Metric-name lint: every metric family declared as a Metric* constant
# must live in the autoglobe_ namespace and end in a conventional unit
# suffix (or the state-gauge suffix "role"), so the exposition stays
# scrapeable and greppable.
echo "== metric-name lint"
bad=$(grep -rhoE 'Metric[A-Za-z]+ += +"[^"]*"' internal --include='metrics.go' |
	grep -vE '= +"autoglobe_[a-z_]+_(total|seconds|minutes|role)"' || true)
if [ -n "$bad" ]; then
	echo "metric-name lint: families outside the naming convention:" >&2
	echo "$bad" >&2
	exit 1
fi

# gotest FILE ARGS...: runs go test -json ARGS into FILE, prints each
# package's summary line and, on failure, the output of every failed
# test and package (decoded from the JSON events), and fails when go
# test fails.
gotest() {
	file=$1
	shift
	status=0
	go test -json "$@" >"$file" || status=$?
	awk -v failed="$status" '
# str returns the JSON string field key of the current event, with the
# escapes test2json emits decoded.
function str(key,   i, s, out, c) {
	i = index($0, "\"" key "\":\"")
	if (!i) return ""
	s = substr($0, i + length(key) + 4)
	out = ""
	while (s != "" && (c = substr(s, 1, 1)) != "\"") {
		if (c == "\\") {
			c = substr(s, 2, 1)
			if (c == "u") {
				c = esc[substr(s, 3, 4)]
				s = substr(s, 5)
			} else if (c in esc) {
				c = esc[c]
			}
			s = substr(s, 2)
		}
		out = out c
		s = substr(s, 2)
	}
	return out
}
BEGIN {
	esc["n"] = "\n"; esc["t"] = "\t"; esc["r"] = "\r"
	esc["0026"] = "&"; esc["003c"] = "<"; esc["003e"] = ">"
}
FNR == NR {
	if (failed && str("Action") == "fail") bad[str("Package") " " str("Test")] = 1
	next
}
str("Action") == "build-output" {
	printf "%s", str("Output")
}
str("Action") == "output" {
	out = str("Output")
	test = str("Test")
	if (bad[str("Package") " " test] || (test == "" && out ~ /^(ok|FAIL|\?) /)) printf "%s", out
}' "$file" "$file"
	if [ "$status" -ne 0 ]; then
		echo "go test $*: FAIL" >&2
		exit "$status"
	fi
	passed=$(sed -n 's/^{[^}]*"Action":"pass","Package":"autoglobe\/\([^"]*\)","Test":"\([^"/]*\)".*/\1 \2/p' "$file")
}

# gate NAME PKG PATTERN...: every PATTERN (a regular expression over
# top-level test names, matched like go test -run) must match at least
# one test of PKG that passed in the last gotest run.
gate() {
	name=$1 pkg=$2
	shift 2
	for pat in "$@"; do
		n=$(printf '%s\n' "$passed" | awk -v pkg="$pkg" -v re="$pat" '$1 == pkg && $2 ~ re' | wc -l)
		echo "  $name gate: $pkg $pat: $n passed"
		if [ "$n" -eq 0 ]; then
			echo "$name gate: no passing test in $pkg matches $pat" >&2
			gatefail=1
		fi
	done
}
events=$(mktemp)
trap 'rm -f "$events"' EXIT
gatefail=0

echo "== go test -race ./..."
gotest "$events" -race ./...

echo "== named gates (from the race run)"
# Observability: the registry, trace ring, health endpoint and the
# Prometheus exposition golden test.
gate observability internal/obs . TestPrometheusExpositionGolden
# Robustness: a full simulated day under fault injection must converge
# to the fault-free landscape, and a coordinator killed at every
# journal-record boundary — including every frame boundary INSIDE a
# group-committed batch append — must neither duplicate nor lose an
# action. The journal and wire fuzz targets run over their checked-in seed corpora.
gate robustness internal/simulator TestChaosConvergesToFaultFreeLandscape
gate robustness internal/agent 'TestCrashPointSweep$' TestCrashPointSweepGroupCommit
gate robustness internal/journal Fuzz
gate robustness internal/wire Fuzz
# Archive: a store killed at every byte boundary of a torn tail must
# recover every committed sample and never a torn one; the record
# decoder must keep rejecting hostile frames; a backed simulated day
# must come back byte-identical after a crash-and-reopen.
gate archive internal/tsdb TestCrashPointSweepTSDB TestCrashPointSweepDict TestCrashPointSweepCompaction Fuzz
gate archive internal/simulator TestArchiveBackedRunSurvivesCrash
# Dispatch: per-host lanes under injected faults and competing callers,
# group commit, and 1 vs 8 dispatch workers byte-identical.
gate dispatch internal/agent TestDoBatchFanoutStress TestDoBatchPerHostOrdering TestGroupCommitCoalesces
gate dispatch internal/simulator TestDispatchWorkersByteIdentical
# Rules: the versioned registry, the atomic hot-swap point (including a
# swap racing live inference), shadow evaluation, validate-before-
# activate pushes with journal-logged activations, and the parser fuzz
# seeds. The zero-alloc-after-swap guard runs race-free in the perf gate.
gate rules internal/rules .
gate rules internal/controller TestSwap TestShadow TestSelectHostFallback TestSelectActionsUnknownServiceError
gate rules internal/agent TestCoordinatorRule TestRuleActivationSurvivesRestart
gate rules internal/simulator TestHotSwapIdenticalBaseMidRunByteIdentical TestShadowRulesDiffOnSimulatedDay TestRulesDirActivatesOnStartup
gate rules internal/fuzzy Fuzz
# HA: the minute-clock lease tracker; lease-expiry takeover and the
# split-brain drill; WarmReplay + Takeover at every byte boundary of the
# dead leader's journal; the bounded heartbeat ring and send retry; and
# the full-day failover run (≥3 seeded leader kills plus an isolation
# drill, converging byte-identically with one epoch bump per takeover).
gate HA internal/lease .
gate HA internal/agent TestElectionFailover TestElectionIsolatedLeaderFenced TestLeaderDeathCrashPointSweep TestReporterBuffersAndDrains TestReporterBoundedRetry
gate HA internal/simulator TestFailoverConvergesToFaultFreeLandscape
# Selection: index vs full scan and 1 vs 8 scoring workers on a paper
# day, the 10k-step randomized index property test, and the
# controller-level parity sweep under random landscape churn.
gate selection internal/simulator TestSelectionWorkersByteIdentical TestPlacementIndexByteIdentical
gate selection internal/placement TestIndexMatchesScanRandomized
gate selection internal/controller TestSelectHostParityAcrossConfigs TestSelectActionsTieBreakPinned
if [ "$gatefail" -ne 0 ]; then
	exit 1
fi

echo "== perf gate: zero-alloc guardrails (race-free run)"
# The tests skip themselves under -race (race instrumentation allocates
# inside sync.Pool), so they get a dedicated race-free run here:
# - the steady-state heartbeat path — reporter batching, binary frame
#   codec, loopback delivery, coordinator shard buffering, pooled ack —
#   and the steady-state dispatch path — recycled idempotency key,
#   pooled envelope and attempt context, bounded agent ack cache and
#   audit ring — and the trigger queue's recycling;
# - the inference fast path, which must stay 0 allocs/op even after a
#   rule-base hot swap (the swap is a pointer store, never a
#   de-optimization), and the steady-state server-selection path
#   (indexed candidate enumeration, bound input vectors, pooled
#   inference, argmax) end to end;
# - the archive's steady-state write path — ring append, incremental
#   day profile, tsdb block write into pooled segment buffers — and the
#   forecaster's read path, per sample.
gotest "$events" -count=1 -run 'TestHeartbeatPathZeroAlloc|TestDispatchPathZeroAlloc|TestTriggerQueueRecycling|TestInferZeroAllocAfterSwap|TestSelectionPathZeroAlloc|TestInferVecAllocs|TestTSDBAppendPathZeroAlloc|TestArchiveRecordPathZeroAlloc|TestPredictZeroAlloc' \
	./internal/agent/ ./internal/controller/ ./internal/fuzzy/ ./internal/tsdb/ ./internal/archive/ ./internal/forecast/
gate perf internal/agent TestHeartbeatPathZeroAlloc TestDispatchPathZeroAlloc TestTriggerQueueRecycling
gate perf internal/controller TestInferZeroAllocAfterSwap TestSelectionPathZeroAlloc
gate perf internal/fuzzy TestInferVecAllocs
gate perf internal/tsdb TestTSDBAppendPathZeroAlloc
gate perf internal/archive TestArchiveRecordPathZeroAlloc
gate perf internal/forecast TestPredictZeroAlloc
if [ "$gatefail" -ne 0 ]; then
	exit 1
fi

echo "== benchmark smoke: TSDBAppend + TSDBReadHot (archive hot paths)"
go test -run XXX -bench 'BenchmarkTSDBAppend$|BenchmarkTSDBReadHot$' -benchtime=100x -benchmem ./internal/tsdb/

echo "== benchmark smoke: FuzzyInference (100 iterations)"
go test -run XXX -bench 'BenchmarkFuzzyInference$' -benchtime=100x -benchmem .

echo "== benchmark smoke: CoordinatorIngest1k (one 1,000-host minute)"
go test -run XXX -bench 'BenchmarkCoordinatorIngest1k$' -benchtime=1x -benchmem .

echo "== benchmark smoke: ActionDispatchLoopback (1,000 dispatches)"
go test -run XXX -bench 'BenchmarkActionDispatchLoopback$' -benchtime=1000x -benchmem .

echo "== benchmark smoke: DispatchFanout1k (one 1,000-host storm per width)"
go test -run XXX -bench 'BenchmarkDispatchFanout1k' -benchtime=1x -benchmem .

echo "== benchmark smoke: SelectHost1k (1,000-host server selection per access path)"
go test -run XXX -bench 'BenchmarkSelectHost1k$' -benchtime=5x -benchmem .

echo "check.sh: all gates passed"

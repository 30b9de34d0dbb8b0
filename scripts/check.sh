#!/bin/sh
# check.sh — the repo's one-command gate. Runs what CI would: formatting,
# vet, the repo's own invariant checker (purity-lint), build, the full test
# suite, and a short race pass over the packages that do real concurrency
# (the parallel write pipeline, its core entry points, the TCP server's
# per-connection goroutines, the allocator/shelf locking, the pyramid's
# memtable and scans, and the read-latency tracker).
#
# Usage: scripts/check.sh            from the repo root
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== purity-lint (repo invariants: lockcheck lockflow taintverify seqmono factmut crashpointcheck errdrop nodebug connguard releasepair goroutinelife lockorder commitorder)"
# The full 13-rule pass (including the interprocedural summary layer) must
# stay interactive: LINT_BUDGET seconds wall-clock, asserted below so a
# regression in the summary fixpoint fails loudly instead of slowly.
# LINT_FINDINGS, when set, receives the machine-readable findings (-json)
# for CI to archive as a build artifact; LINT_GRAPHS, when set, names a
# directory that receives the inferred lock-order and call graphs as DOT,
# archived next to the findings (DESIGN.md's lock hierarchy is this
# output). LINT_RULES, when set, restricts the pass to a comma-separated
# subset — CI uses it to run the syntactic and interprocedural shards in
# parallel.
LINT_BUDGET="${LINT_BUDGET:-60}"
lintdir=$(mktemp -d)
trap 'rm -rf "$lintdir"' EXIT
go build -o "$lintdir/purity-lint" ./cmd/purity-lint
lint_start=$(date +%s)
if [ -n "${LINT_FINDINGS:-}" ]; then
	lint_status=0
	"$lintdir/purity-lint" ${LINT_RULES:+-rules "$LINT_RULES"} -json ./... > "$LINT_FINDINGS" || lint_status=$?
	if [ "$lint_status" -ne 0 ]; then
		# Mirror the findings to stderr so the failure is readable in the log.
		cat "$LINT_FINDINGS" >&2
		exit "$lint_status"
	fi
else
	"$lintdir/purity-lint" ${LINT_RULES:+-rules "$LINT_RULES"} ./...
fi
if [ -n "${LINT_GRAPHS:-}" ]; then
	mkdir -p "$LINT_GRAPHS"
	"$lintdir/purity-lint" -graph lock ./... > "$LINT_GRAPHS/lockorder.dot"
	"$lintdir/purity-lint" -graph calls ./... > "$LINT_GRAPHS/callgraph.dot"
fi
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "purity-lint: clean in ${lint_elapsed}s (budget ${LINT_BUDGET}s)"
if [ "$lint_elapsed" -gt "$LINT_BUDGET" ]; then
	echo "purity-lint: wall clock ${lint_elapsed}s exceeds the ${LINT_BUDGET}s budget" >&2
	exit 1
fi

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== crash-consistency sweep (short, incl. rebuild fault points; full sweep: purity-bench -experiment CS)"
go test -short -run 'TestCrashSweep|TestTornTailRecovery|TestCorruptTailRecovery|TestCrashDuringRecovery' ./internal/core/

echo "== drive-failure lifecycle (scrub repair + online rebuild)"
go test -run 'TestScrubRepairsAllInjectedCorruption|TestScrubStepPacedWalkerCoversEverything|TestRebuildRestoresRedundancyAndBootRegion|TestRebuildSurvivesSecondFailure|TestOpenAtWithOneNVRAMFailed' ./internal/core/

echo "== go test -race (concurrency-bearing packages)"
go test -race -short ./internal/pipeline/ ./internal/server/ ./internal/dedup/ ./internal/layout/ ./internal/shelf/ ./internal/pyramid/ ./internal/iosched/
go test -race -short -run 'TestConcurrentWriters|TestConcurrentScrubRebuildForeground' ./internal/core/

echo "== sharded commit lanes (-race multi-lane writers + crash window)"
go test -race -short -run 'TestLane' ./internal/core/

echo "== pipelined front end (-race: out-of-order completion, 64 in-flight on one conn, SLO scrub deferral)"
go test -race -run 'TestPipelined|TestOutOfOrderCompletion|TestDuplicateTagKillsConnection|TestAdmissionWindowBackpressure|TestWireHealthCounters|TestServeSurvivesTransientAcceptErrors' ./internal/server/
go test -run 'TestScrubDefersUnderSLOPressure|TestScrubRunsWithSLODisabled' ./internal/core/

echo "== E13 smoke (2-lane scaling run; output not committed — see .gitignore)"
go run ./cmd/purity-bench -experiment E13 -quick > /dev/null

echo "== E14 smoke (pipelined vs sync queue-depth sweep over loopback TCP)"
go run ./cmd/purity-bench -experiment E14 -quick > /dev/null

echo "== HA (-race: chaos injector, session exactly-once, client reconnect/replay, server drain + failover)"
go test -race ./internal/chaos/ ./internal/controller/
go test -race -run 'TestHA' ./internal/client/
go test -race -run 'TestGracefulDrain|TestWriterDeadline|TestIdleTimeout|TestAcceptBackoffResets|TestSessionIdempotentWriteOverWire|TestHeartbeatFailover' ./internal/server/

echo "== E15 smoke (kill the primary mid-workload under chaos; zero loss, zero dup, gap << 30s)"
go run ./cmd/purity-bench -experiment E15 -quick > /dev/null

echo "ok: all checks passed"

#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, tests, plus the race-detector pass
# for the concurrent packages.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...
# perfbench/ is its own module (replace ecofl => ../), so the root ./...
# never reaches it; vet and test it here so a flnet API change cannot
# break the benchmark unseen.
(cd perfbench && go vet . && go test .)
# -short keeps the race pass fast: the flnet chaos soak (fault-injected
# links, server bounces) and the pipeline chaos soak (executor TestChaosSoak:
# every simnet fault mode plus a killed device, under ./internal/adaptive/...)
# run their reduced-round configurations here, having already run in full
# above. ./internal/adaptive/... covers the self-healing executor package;
# ./internal/pipeline/runtime/... covers the hardened link layer;
# ./internal/flnet/... recursively covers ./internal/flnet/wire/... (binary
# frame codecs) alongside the codec chaos soaks.
go test -race -short ./internal/tensor/... ./internal/fl/... \
	./internal/fl/robust/... \
	./internal/metrics/... ./internal/obs/... ./internal/adaptive/... \
	./internal/flnet/... ./internal/simnet/... ./internal/device/... \
	./internal/scenario/... ./internal/pipeline/runtime/...

# Scenario-harness smoke: one tiny loopback federation through the real
# transport, end to end — spec loading, the runner, report emission. Finishes
# in well under a second; catches wiring breaks the unit tests can't.
go run ./cmd/ecofl bench --scenario examples/scenarios/smoke.json \
	--out /tmp/ecofl_ci_smoke.json >/dev/null
rm -f /tmp/ecofl_ci_smoke.json
echo "scenario smoke: ok"

# Churn smoke: the 50% diurnal-churn soak through the declarative harness —
# availability traces, mid-round departures, re-admission and quorum cuts,
# with the flight recorder on. Proves the membership machinery end to end.
go run ./cmd/ecofl bench --scenario examples/scenarios/churn50.json \
	--out /tmp/ecofl_ci_churn.json >/dev/null
rm -f /tmp/ecofl_ci_churn.json
echo "churn smoke: ok"

# Byzantine smoke: 30% sign-flip adversaries against the median in-group
# mixer through the declarative harness — seeded corruption, robust
# aggregation, and the attack metrics, end to end.
go run ./cmd/ecofl bench --scenario examples/scenarios/byzantine30.json \
	--out /tmp/ecofl_ci_byz.json >/dev/null
rm -f /tmp/ecofl_ci_byz.json
echo "byzantine smoke: ok"

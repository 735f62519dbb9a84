# Standard verify entry point: `make check` runs scripts/check.sh, the one
# copy of the gate (use the script directly where make is unavailable).
# The stage targets are aliases for `scripts/check.sh <stage>`; what each
# stage runs, and why, is documented there.

GO ?= go

STAGES = fmtcheck vet build test race racestress soakfailover fuzzseed ckptsmoke allocfloors benchsmoke

.PHONY: check $(STAGES) bench benchfull benchskew benchserving benchmultiquery fmt

check:
	scripts/check.sh

$(STAGES):
	scripts/check.sh $@

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# Full hot-path benchmark pass (-benchmem, 2s per benchmark) and refresh
# of the recorded trajectory in BENCH_hotpath.json.
benchfull:
	BENCHTIME=2s scripts/bench.sh

# Adaptive state-tiering acceptance run only: cold-tier probe parity over
# long-lived state and the skew-split state bound, recorded (with
# per-name medians across repeated samples) into BENCH_tiering.json.
benchskew:
	ONLY=tiering scripts/bench.sh

# Serving-layer benchmark pass only: sustained throughput plus the
# warm-standby failover RTO row, recorded into BENCH_serving.json.
benchserving:
	ONLY=serving scripts/bench.sh

fmt:
	gofmt -l .

# Shared-subplan multi-query benchmark pass only: view ladders per
# overlap shape, recorded (with per-name medians across repeated
# samples) into BENCH_multiquery.json.
benchmultiquery:
	ONLY=multiquery scripts/bench.sh

GO ?= go

# Every test invocation carries a global timeout: a reintroduced wedge
# (hung waiter, blocked probe loop, lock held across a dial) fails the
# run instead of hanging it.
TEST_TIMEOUT ?= 10m

.PHONY: all build test quick race vet verify chaos smoke bench bench-netv3 bench-mux bench-tpcc bench-resync clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

# quick is the edit loop: -short skips the simulated paper-figure shape
# tests in internal/bench (~270 s of `make test`) and the few-thousand-
# stream mux test, leaving the whole live stack in ~15 s.
quick:
	$(GO) test -short -timeout $(TEST_TIMEOUT) ./...

race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./...

# internal/diskq has no importer left in this module: it stays on disk only
# because benchmark/unit.go (which product PRs may not touch) times it, until
# a [benchmark] PR deletes both. The second line keeps it from quietly
# regaining a product importer in the meantime.
vet:
	$(GO) vet ./...
	@if $(GO) list -deps ./cmd/... ./internal/netv3/ ./internal/vvault/ ./internal/workload/ | grep internal/diskq; then \
		echo 'vet: internal/diskq is a stranded leaf and must not be imported'; exit 1; fi

# verify is the gate every change must pass.
verify: vet build race

# chaos runs every suite of the live stack's concurrent tiers — fault
# injection (blackholed peers, cancel storms, partitions), resync and
# replication-log protocols, the destage/read-ahead fan-out, the
# write-behind model schedules, the workload engine — under the race
# detector, twice, so an interleaving that only fails sometimes gets two
# chances to.
chaos:
	$(GO) test -race -count=2 -timeout $(TEST_TIMEOUT) \
		./internal/netv3/ ./internal/vvault/ \
		./internal/repl/ ./internal/workload/

# smoke drives the binaries and every benchmark once: TPC-C over the
# in-process cluster (single server, then a two-node vault), and each
# Benchmark* at one iteration with no BENCH_JSON, so nothing is recorded —
# it only proves they still build and run. The judged benchmark (its own
# module, invisible to ./...) is vetted, tested and run for one second per
# workload, traced and untraced: it reaches config fields, stats and stage
# names by reflection, so a rename here reads 0 there instead of failing to
# build. run.sh exits non-zero on a failed op or verifier; the shape check
# catches a pinned config field that went missing, beyond the four PR 13
# deleted on purpose.
BENCH_SMOKE_LOG = .bench_build/smoke.log
smoke:
	$(GO) run ./cmd/v3tpcc -net -quick
	$(GO) run ./cmd/v3tpcc -net -quick -nodes 2
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout $(TEST_TIMEOUT) ./...
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .
	@mkdir -p $(dir $(BENCH_SMOKE_LOG))
	bash benchmark/run.sh --workload all --seed 1 --seconds 1 > $(BENCH_SMOKE_LOG) || { cat $(BENCH_SMOKE_LOG); exit 1; }
	@grep -E '^== |ops=' $(BENCH_SMOKE_LOG)
	@if grep -o 'shape_skipped:.*' $(BENCH_SMOKE_LOG) | tr ' ' '\n' | \
		grep -vxE 'shape_skipped:|DiskQ|SQDepth|NoWriteBehind|NoPrefetch|'; then \
		echo 'smoke: the benchmark could not apply the shape fields above'; exit 1; fi

# bench regenerates the netv3 fast-path numbers (BENCH_netv3.json) and
# runs the paper-figure benchmarks once.
bench: bench-netv3
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Both TestMains merge rows into BENCH_JSON by name (newest wins), so
# run order does not matter and partial re-runs leave other rows alone.
bench-netv3:
	BENCH_JSON=$(CURDIR)/BENCH_netv3.json $(GO) test -run '^$$' \
		-bench 'BenchmarkNetv3' -benchtime 1s ./internal/netv3/
	BENCH_JSON=$(CURDIR)/BENCH_netv3.json $(GO) test -run '^$$' \
		-bench 'BenchmarkNetv3Cluster' -benchtime 1s ./internal/vvault/

# bench-tpcc re-records the real-stack workload rows (uniform, Zipfian
# hot-key, sequential scan, bursty arrivals, full TPC-C mix) from the
# wall-clock engine in internal/workload over an in-process v3d server.
# Each row is one fixed measurement window, so -benchtime 1x: the engine
# is the load generator and b.N repetition adds nothing but time.
bench-tpcc:
	BENCH_JSON=$(CURDIR)/BENCH_netv3.json $(GO) test -run '^$$' \
		-bench 'BenchmarkNetv3TPCC' -benchtime 1x -timeout $(TEST_TIMEOUT) \
		./internal/workload/

# bench-resync re-records the recovery-path rows: cursor catch-up (a
# 1 MB outage replayed precisely from the replication log) against the
# full-rescan floor (a replica with unknown content replaying the whole
# 8 MB member). Each iteration is one outage/recovery episode, so
# -benchtime 1x.
bench-resync:
	BENCH_JSON=$(CURDIR)/BENCH_netv3.json $(GO) test -run '^$$' \
		-bench 'BenchmarkNetv3Resync' -benchtime 1x ./internal/vvault/

# bench-mux re-records the session-multiplexing rows: p99 at 100 vs
# 10000 logical streams on one connection, mux throughput vs a
# connection per client at equal concurrency, and the QoS-lane ablation
# (foreground p99 alone vs under background destage/resync load).
# Counted -benchtime keeps the op population identical across runs so
# the percentiles are comparable.
bench-mux:
	BENCH_JSON=$(CURDIR)/BENCH_netv3.json $(GO) test -run '^$$' \
		-bench 'BenchmarkNetv3MuxSessions' -benchtime 20000x ./internal/netv3/
	BENCH_JSON=$(CURDIR)/BENCH_netv3.json $(GO) test -run '^$$' \
		-bench 'BenchmarkNetv3MuxVsConns' -benchtime 20000x ./internal/netv3/
	BENCH_JSON=$(CURDIR)/BENCH_netv3.json $(GO) test -run '^$$' \
		-bench 'BenchmarkNetv3MuxLane' -benchtime 60000x ./internal/netv3/

clean:
	$(GO) clean ./...

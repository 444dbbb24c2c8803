GO ?= go

# Every test invocation carries a global timeout: a reintroduced wedge
# (hung waiter, blocked probe loop, lock held across a dial) fails the
# run instead of hanging it.
TEST_TIMEOUT ?= 10m

.PHONY: all build test quick race vet verify chaos smoke bench pairs clean

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
# a [benchmark] PR deletes both. The first guard keeps it from quietly
# regaining a product importer in the meantime. The second keeps
# internal/mqcache on its slabs: container/list survives there only in the
# _test.go oracle the slab MQ and LRU are checked against. The third keeps
# the docs describing the system that exists: README.md, and DESIGN.md above
# its appendix of retired mechanisms, may not name deleted code. (The
# one-character classes keep this line from naming it either, so a repo-wide
# grep for a deleted name stays empty outside that appendix.)
DELETED = BENCH_[n]etv3|bench[j]son|BENCH_[J]SON|bench-(netv3|mux|tpcc|resync)|Client[S]tageDefs|-no[t]race|io_uring|DiskWorkers|diskqueue|netv3[.]IO|acquire[S]lot|data[I]O|resync[I]O|issue[E]xtents|wait[E]xtents|Reconn[e]ctor|obs[.]Counter|obs[.]Gauge|bounded[W]ait|stripe[I]O|read[M]irror|Stream[O]pen|Stream[C]lose\b|Max[S]treams|max[s]treams|open[W]aiters|Streams[S]upported|ErrStreams[U]nsupported|Streams[A]ctive|streams[_]active|Feature[S]treams|Credit[G]rant|Write[R]esp|Flush[R]esp|Buf[A]ddr|Flag[P]ollCompletion|Status[E]Again|Header[.]Ack|Write[.]Slot|internal/[f]low|internal/[r]eliable|u[n]claim\b|connection[B]roken|failAll[L]ocked|detach[L]ocked|WriteAsync[C]tx|FlushAsync[C]tx|write[T]hrough\b|absorbIf[R]esident|update[B]lock|WriteThrough[F]allbacks|Trace[S]upported|Feature[T]race|Want[C]red|DestageBatch[H]ist|destageHist[B]uckets|batch[B]ucket|DestageFan[O]ut|-cach[e] 0|uncache[d] volume|read [r]otation|Mirror[.]next
# vet also refuses unformatted Go anywhere in the tree — the module and the
# benchmark's own — except the benchmark's build caches under .bench_build/.
GOFMT ?= gofmt
vet:
	$(GO) vet ./...
	@bad=$$($(GOFMT) -l $$(find . -name .bench_build -prune -o -name '*.go' -print)); \
	if [ -n "$$bad" ]; then echo "$$bad"; \
		echo 'vet: the files above are not gofmt-formatted; run gofmt -w on them'; exit 1; fi
	@if $(GO) list -deps ./cmd/... ./internal/netv3/ ./internal/vvault/ ./internal/workload/ | grep internal/diskq; then \
		echo 'vet: internal/diskq is a stranded leaf and must not be imported'; exit 1; fi
	@if $(GO) list -f '{{.Imports}}' ./internal/mqcache/ | grep -w container/list; then \
		echo 'vet: internal/mqcache keeps its queues on slabs and must not import container/list'; exit 1; fi
	@bad=$$(grep -nHE -e '$(DELETED)' README.md; \
		sed '/^## Appendix/,$$d' DESIGN.md | grep -nE -e '$(DELETED)' | sed 's/^/DESIGN.md:/'); \
	if [ -n "$$bad" ]; then echo "$$bad"; \
		echo 'vet: the lines above name deleted code; history belongs in the DESIGN.md appendix or CHANGES.md'; exit 1; fi

# verify is the gate every change must pass.
verify: vet build race

# chaos runs every suite of the live stack's concurrent tiers — fault
# injection (blackholed peers, cancel storms, partitions), resync and
# replication-log protocols, the in-order destage pass and the read-ahead
# fan-out, the write-behind model schedules, the workload engine, the slab
# caches' differential tests — under the race detector, twice, so an
# interleaving that only fails sometimes gets two chances to; then the
# stale-session fence and the reconnect stress test fifty times each.
chaos:
	$(GO) test -race -count=2 -timeout $(TEST_TIMEOUT) \
		./internal/netv3/ ./internal/vvault/ \
		./internal/repl/ ./internal/workload/ ./internal/mqcache/
	$(GO) test -race -count=50 -timeout $(TEST_TIMEOUT) \
		-run 'TestStaleSessionFenced|TestStressMixedIOWithReconnects' ./internal/netv3/

# smoke drives the binaries and every benchmark once: TPC-C over the
# in-process cluster (single server, then a two-node vault), the examples
# that have no tests (each must finish inside its timeout, so one that
# hangs fails here), and each Benchmark* at one iteration, which only
# proves they still build and run.
# The judged benchmark (its own module, invisible to ./...) is vetted,
# tested and run for one second per workload, traced and untraced: it
# reaches config fields, stats and stage names by reflection, so a rename
# here reads 0 there instead of failing to build. run.sh exits non-zero on
# a failed op or verifier; the shape check catches a pinned config field
# that went missing, beyond the four PR 13 deleted on purpose.
BENCH_SMOKE_LOG = .bench_build/smoke.log
smoke:
	$(GO) run ./cmd/v3tpcc -net -quick
	$(GO) run ./cmd/v3tpcc -net -quick -nodes 2
	timeout 120 $(GO) run ./examples/quickstart
	timeout 120 $(GO) run ./examples/cluster
	timeout 120 $(GO) run ./examples/clone
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout $(TEST_TIMEOUT) ./...
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .
	@mkdir -p $(dir $(BENCH_SMOKE_LOG))
	bash benchmark/run.sh --workload all --seed 1 --seconds 1 > $(BENCH_SMOKE_LOG) || { cat $(BENCH_SMOKE_LOG); exit 1; }
	@grep -E '^== |ops=' $(BENCH_SMOKE_LOG)
	@if grep -o 'shape_skipped:.*' $(BENCH_SMOKE_LOG) | tr ' ' '\n' | \
		grep -vxE 'shape_skipped:|DiskQ|SQDepth|NoWriteBehind|NoPrefetch|'; then \
		echo 'smoke: the benchmark could not apply the shape fields above'; exit 1; fi

# bench is the repository's one measurement: the judged benchmark on all
# four workloads (20 s each, untraced then traced; benchmark/README.md says
# how to read it), then the simulated paper figures once. It writes
# nothing into the tree.
bench:
	bash benchmark/run.sh --workload all --seed 1
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# pairs is how a performance claim is measured (ROADMAP, "the judged
# numbers"): PAIRS interleaved runs of the judged benchmark on WORKLOAD, this
# checkout against the checkout of its parent commit in PARENT, each side
# built once, order alternating, a fresh seed per pair; per-metric medians,
# quartiles and wins at the end. tools/pairs.sh says the rest.
WORKLOAD ?= tpcc_mirror
PAIRS ?= 10
pairs:
	@test -n "$(PARENT)" || { echo 'usage: make pairs PARENT=<checkout of the parent commit> [WORKLOAD=tpcc_mirror] [PAIRS=10]'; exit 2; }
	bash tools/pairs.sh $(WORKLOAD) $(PAIRS) $(PARENT)

clean:
	$(GO) clean ./...

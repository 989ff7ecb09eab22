# Convenience targets; everything is plain `go` underneath.

.PHONY: all build check fmt-check vet lint test test-race test-flperf bench bench-engine loc soak soak-respawn soak-e17 results examples clean

all: build check

build:
	go build ./...

# The gate every change must pass: gofmt, vet, the custom analyzer suite,
# the full tests under the race detector (the pooled engine makes -race
# mandatory, not optional) except the experiment harness's, and the
# benchmark harness's own tests.
check: fmt-check vet lint test-race test-flperf

# Every tracked Go file outside the analyzers' testdata must be gofmt-clean
# (the golden files there keep their hand-aligned `// want` columns).
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -v '/testdata/')); \
	if [ -n "$$out" ]; then printf 'gofmt -l lists:\n%s\n' "$$out"; exit 1; fi

# cmd/flperf is its own module, so ./... does not reach it.
vet:
	go vet ./...
	go -C cmd/flperf vet .

# flvet runs the analyzers that catch what the tests cannot: poolonly
# (goroutines only in the shard pool), hotmap (no maps in the hot-path
# files) and detrand (no clock, environment, host or global math/rand call
# in the protocol packages) — see DESIGN.md "Static contracts" for the
# mutation audit that chose them. There is no suppression file and no
# exemption directive: every finding fails the run. cmd/flvet's own tests
# run the same suite, so `make test` regresses too if an analyzer fires.
lint:
	go run ./cmd/flvet ./...

test:
	go test ./...

# internal/bench runs without -race: its tests drive the engine paths
# that congest's multi-shard matrices already run under the detector, and
# they take about 28 s under it against 3 s without.
test-race:
	go test -race $$(go list ./... | grep -v '^dfl/internal/bench$$')
	go test ./internal/bench

# cmd/flperf is a nested module, so `go test ./...` never reaches the tests
# that drive the parallel runner and RunShard through its checkers.
test-flperf:
	go -C cmd/flperf test .

# One testing.B per evaluation artifact plus micro-benchmarks.
bench:
	go test -bench=. -benchmem ./...

# Just the engine/protocol hot-path benchmarks (compare against
# BENCH_seed.json); BroadcastBipartite covers the merge's expansion of
# broadcast records at facility-location shape. The output filter must
# not swallow failures: capture the run first, propagate its exit status
# (printing the full output on error), and only then trim the noise.
bench-engine:
	@out=$$(go test -run XXX -bench 'EngineRound|MakeOffer|DistributedSolve|BroadcastBipartite' -benchmem ./... 2>&1) || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | grep -E 'Benchmark|^ok' || true

# Code size: non-blank lines that are not `//` comments, in non-test Go
# files outside analyzer testdata, per package directory and in total.
# cmd/flperf, a module of its own, counts too; hidden directories (the
# benchmark's build output) do not.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' | xargs awk ' \
	!/^[ \t]*$$/ && !/^[ \t]*\/\// { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; t++ } \
	END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# Churn soak over the real UDP transport: build the fleet binaries, then
# run flnode fleets on loopback for 15s with 10% packet loss and one
# SIGKILLed shard per deployment, certifying every assembled result.
# Exits nonzero on any hang, assembly failure, or certification failure.
soak:
	go build -o bin/ ./cmd/flnode ./cmd/flsoak
	./bin/flsoak -duration 15s -chaos loss=0.1 -kill 1

# Recovery-rung soak: same churn, but victims checkpoint every round and
# are relaunched with -resume after each SIGKILL. A readmitted shard must
# end every run with zero exemptions in its span — a successful rejoin
# that still orphans clients fails the soak.
soak-respawn:
	go build -o bin/ ./cmd/flnode ./cmd/flsoak
	./bin/flsoak -duration 15s -chaos loss=0.1 -kill 1 -respawn

# The E17 kill-round sweep (masked-forever vs checkpoint+readmit) behind
# EXPERIMENTS.md's cost-degradation table.
soak-e17:
	go build -o bin/ ./cmd/flnode ./cmd/flsoak
	./bin/flsoak -e17 -seed 4

# Regenerate every table and figure into results/ (about 5 s on 2 vCPUs).
# The committed CSVs are goldens: internal/bench's TestAllExperimentsQuick
# fails on any changed cell, so after this target `git status results/`
# shows exactly the cells a change moved.
results:
	go run ./cmd/flbench -out results

examples:
	go run ./examples/quickstart
	go run ./examples/cdn
	go run ./examples/warehouse
	go run ./examples/sensornet
	go run ./examples/lossy

clean:
	rm -rf bin test_output.txt bench_output.txt

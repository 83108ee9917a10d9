# ITDOS development targets. `make check` is the tier-1 verify recipe: run
# it before every commit. Everything here uses only the Go toolchain.

GO ?= go
FUZZTIME ?= 30s

.PHONY: check build fmt vet lint test race auth-budget bench-build bench-json fuzz fuzz-smoke corpus clean

check: build fmt vet lint race auth-budget bench-build

# Perf regression guards: batched ordering keeps its msgs/request win (P1),
# the read-only fast path keeps its msgs+latency win (P3), the pooled seal
# chain keeps its allocs/request win (P4), and tentative execution keeps its
# one-round latency win plus its clean lying-replica fallback (P5); see
# EXPERIMENTS.md (P2, digest replies, is retired with the path it measured).
# CI runs this next to the tier-1 recipe.
.PHONY: check-perf
check-perf:
	$(GO) run ./cmd/itdos-bench -check P1,P3,P4,P5

# Adversary campaign suite: seeded multi-stage campaigns (C9 slow
# compromise + collusion, C10 a lying replica under key churn, C11
# compromised-then-recovered replica) asserting the intrusion-response
# loop end to end — decisions correct, <= f expelled, liveness restored.
# The second step re-runs the campaigns with the flight recorder and
# writes their forensic dumps (FLIGHT_C9/C10/C11.json, schema
# itdos-flight/1) into bench-out/ for the CI artifact upload. The third
# sweeps the seeded twin of the benchmark's primary_crash workload over 100
# seeds (every */r0 identity crashed under closed-loop load) and fails on
# any wedge.
.PHONY: campaign
campaign:
	$(GO) run ./cmd/itdos-bench -check C9,C10,C11
	mkdir -p bench-out
	$(GO) run ./cmd/itdos-bench -exp C9,C10,C11 -json -flight -out bench-out
	$(GO) test -run TestPrimaryCrashTwin ./internal/replica

build:
	$(GO) build ./...

# Fails on any file gofmt would rewrite (benchmark/ and lint fixtures included).
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/itdos-lint ./...

test:
	$(GO) test ./...

# Heavy experiment regressions (internal/bench) opt out of -short; the race
# detector's ~10x slowdown would push them past the test timeout, and the
# non-race `make test` still covers them.
race:
	$(GO) test -race -short ./...

# Authentication budget: signatures, verifications and MAC tags per ordered
# request (whole group plus clients, counted on netsim where the counts
# repeat exactly) may not rise above internal/pbft/testdata/auth_budget.json,
# nor the data layer's own per call (payload signatures made, checked by
# elements, checked by callers) above internal/replica/testdata/auth_budget.json.
# Regenerate with: go test ./internal/pbft ./internal/replica -run TestAuthBudget -update-auth-budget
auth-budget:
	$(GO) test -run=TestAuthBudget -v ./internal/pbft ./internal/replica

# benchmark/ is its own module (the root ./... patterns skip it) and calls
# internal/smiop, vote, pbft and replica directly: compile, vet and test it
# here so an internal rename cannot break the repo benchmark silently.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Machine-readable experiment tables: one BENCH_<id>.json per experiment
# (schema itdos-bench/2), plus a sample trace dump. CI uploads bench-out/
# as a workflow artifact.
bench-json:
	mkdir -p bench-out
	$(GO) run ./cmd/itdos-bench -json -out bench-out
	$(GO) run ./cmd/itdos-demo -calls 2 -trace > bench-out/TRACE_sample.txt
	$(GO) run ./cmd/itdos-demo -calls 2 -trace-json > bench-out/TRACE_sample.json

# Allocation profile of the reply seal chain (the zero-copy tentpole's
# hot path) and of its receive side (one sealed 16 KiB reply through
# DecodeEnvelope, OpenData, DecodeSignedPayload and giop.Decode):
# -benchmem numbers written to bench-out/ for the CI artifact, plus the
# budget gates — TestSealChainAllocBudget fails when the seal chain's
# allocs/op, TestOpenChainAllocBudget and TestSendChainAllocBudget when the
# open chain's or the send chain's (one sealed 16 KiB reply handed to a TCP
# transport) allocs/op or B/op, regress more than 10% over the committed baseline in
# internal/smiop/testdata/alloc_budget.json. BenchmarkCheckpoint rides
# along: one checkpoint on a queue retaining 64, 1024 or 4096 messages,
# whose ns/op and B/op should not depend on that number.
.PHONY: bench-mem
bench-mem:
	mkdir -p bench-out
	$(GO) test -run='^$$' -bench='BenchmarkSealChain|BenchmarkOpenChain' -benchmem ./internal/smiop | tee bench-out/BENCHMEM.txt
	$(GO) test -run='^$$' -bench='BenchmarkCheckpoint' -benchmem ./internal/srm | tee -a bench-out/BENCHMEM.txt
	$(GO) test -run='TestSealChainAllocBudget|TestOpenChainAllocBudget|TestSendChainAllocBudget' -v ./internal/smiop

# The profile that names a layer before an optimisation: BenchmarkInProcCall
# (add and echo16k through five loopback nodes in one process, 32 callers;
# not their -tentative siblings)
# at a fixed 3000 calls each with B/op and allocs/op, its flat CPU profile,
# who signs and verifies, who feeds SHA-256 and the GCM seal and open — the
# hashing and sealing passes per layer — and who allocates the most bytes,
# in bench-out/INPROC_PROFILE.txt. Then the committed form of the same
# budget: cmd/itdos-inproc runs each workload five times more and adds this
# checkout's row — medians of ns/op, B/op and allocs/op, and the CPU share of
# every layer — to BENCH_INPROC.json, and writes it alone to
# bench-out/INPROC_ROW.json. A perf claim cites its parent's row and its own.
.PHONY: bench-inproc
bench-inproc:
	mkdir -p bench-out
	$(GO) test -run='^$$' -bench='InProcCall/(add|echo16k)$$' -benchtime=3000x -benchmem -cpuprofile=bench-out/inproc.cpu -memprofile=bench-out/inproc.mem -o bench-out/cluster.test ./internal/cluster | tee bench-out/INPROC_PROFILE.txt
	$(GO) tool pprof -top bench-out/cluster.test bench-out/inproc.cpu >> bench-out/INPROC_PROFILE.txt
	$(GO) tool pprof -peek 'SignDigest$$|VerifyDigest$$' bench-out/cluster.test bench-out/inproc.cpu >> bench-out/INPROC_PROFILE.txt
	$(GO) tool pprof -peek 'sha256\.\(\*Digest\)\.Write$$|crypto/sha256\.Sum256$$' bench-out/cluster.test bench-out/inproc.cpu >> bench-out/INPROC_PROFILE.txt
	$(GO) tool pprof -peek 'gcm\.\(\*GCM\)\.(Seal|Open)$$' bench-out/cluster.test bench-out/inproc.cpu >> bench-out/INPROC_PROFILE.txt
	$(GO) tool pprof -sample_index=alloc_space -top bench-out/cluster.test bench-out/inproc.mem >> bench-out/INPROC_PROFILE.txt
	$(GO) run ./cmd/itdos-inproc

# Continuous fuzzing of each decoder boundary, FUZZTIME per target.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCDRDecode -fuzztime=$(FUZZTIME) ./internal/cdr
	$(GO) test -run='^$$' -fuzz=FuzzGIOPParse -fuzztime=$(FUZZTIME) ./internal/giop
	$(GO) test -run='^$$' -fuzz=FuzzSMIOPReassemble -fuzztime=$(FUZZTIME) ./internal/smiop
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeDecode -fuzztime=$(FUZZTIME) ./internal/smiop
	$(GO) test -run='^$$' -fuzz=FuzzSignedPayloadDecode -fuzztime=$(FUZZTIME) ./internal/smiop
	$(GO) test -run='^$$' -fuzz=FuzzSealedOpen -fuzztime=$(FUZZTIME) ./internal/seckey
	$(GO) test -run='^$$' -fuzz=FuzzPrePrepareDecode -fuzztime=$(FUZZTIME) ./internal/pbft
	$(GO) test -run='^$$' -fuzz=FuzzMACAuthenticator -fuzztime=$(FUZZTIME) ./internal/pbft
	$(GO) test -run='^$$' -fuzz=FuzzTCPFrameDecode -fuzztime=$(FUZZTIME) ./internal/transport/tcp
	$(GO) test -run='^$$' -fuzz=FuzzQueueSnapshot -fuzztime=$(FUZZTIME) ./internal/srm
	$(GO) test -run='^$$' -fuzz=FuzzSRMPack -fuzztime=$(FUZZTIME) ./internal/srm

# The packages with committed fuzz seed corpora.
FUZZ_PKGS = ./internal/cdr ./internal/giop ./internal/smiop ./internal/seckey ./internal/pbft ./internal/transport/tcp ./internal/srm

# Replay the committed seed corpora without fuzzing (fast; part of CI).
fuzz-smoke:
	$(GO) test -run='Fuzz' $(FUZZ_PKGS)

# Regenerate the committed fuzz seed corpora from golden vectors.
corpus:
	$(GO) test -tags corpusgen -run 'TestGen.*Corpus' $(FUZZ_PKGS)

# --- real-socket cluster harness (cmd/itdos-cluster, cmd/itdos-load) ---

# Build the cluster binaries and a default 4-node loopback spec.
.PHONY: cluster-build
cluster-build:
	mkdir -p cluster-out
	$(GO) build -o cluster-out/itdos-cluster ./cmd/itdos-cluster
	$(GO) build -o cluster-out/itdos-load ./cmd/itdos-load
	cluster-out/itdos-cluster -init -spec cluster-out/cluster.json

# Start a local 3f+1 cluster in the background (pids in cluster-out/).
.PHONY: cluster-up
cluster-up: cluster-build
	@for n in node0 node1 node2 node3; do \
		cluster-out/itdos-cluster -spec cluster-out/cluster.json -node $$n & \
		echo $$! >> cluster-out/pids; \
	done; \
	echo "cluster up; drive it with: cluster-out/itdos-load -spec cluster-out/cluster.json -rate 200"

# Kill a cluster started with cluster-up.
.PHONY: cluster-down
cluster-down:
	-@if [ -f cluster-out/pids ]; then \
		kill $$(cat cluster-out/pids) 2>/dev/null; rm -f cluster-out/pids; \
		echo "cluster down"; \
	fi

# CI gate: boot a real 4-process cluster over loopback, drive 200
# requests through itdos-load, fail on any error or timeout.
.PHONY: cluster-smoke
cluster-smoke:
	bash scripts/cluster-smoke.sh

# The pairing rule for a performance claim (see scripts/bench-pairs.sh):
# alternating parent/change runs of the repo benchmark, medians, quartiles
# and wins per end-to-end metric. PARENT and CHANGE are two checkouts.
.PHONY: bench-pairs
bench-pairs:
	bash scripts/bench-pairs.sh $(or $(WORKLOAD),add_small) $(or $(SEED),1) $(or $(PAIRS),10) $(PARENT) $(CHANGE)

# Net code size: non-test Go lines outside benchmark/ in this tree, at BASE
# (default: the merge-base with main), and the delta per directory — what a
# PR reports in CHANGES.md. Informational; not part of `check`.
.PHONY: loc
loc:
	bash scripts/loc.sh

clean:
	$(GO) clean ./...
	rm -rf cluster-out

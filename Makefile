# Build and verification targets. CI (.github/workflows/ci.yml) invokes these
# same targets so local runs and CI are identical.

GO ?= go

.PHONY: all build cross vet fmt lint test examples race race-recovery cover soak soak-recover bench bench-allocs benchmark-smoke netcal

all: build vet fmt test benchmark-smoke

build:
	$(GO) build ./...

vet: cross
	$(GO) vet ./...

# cross vets the stencil package and builds everything for arm64, offline:
# it proves the pure-Go fallback (brickkernel_other.go) still builds where
# the amd64 assembly does not. On amd64, `go vet`'s asmdecl check covers the
# assembly's frame offsets. The s390x build does the same for the tcp
# payload codec's big-endian branch, the one host order whose float64
# bytes are not the wire's.
cross:
	GOARCH=arm64 $(GO) vet ./internal/stencil/
	GOARCH=arm64 $(GO) build ./...
	GOARCH=s390x $(GO) build ./...

# fmt fails (listing the offenders) if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs the pinned static analyzers. CI calls this exact target, so a
# local `make lint` reproduces the CI lint job bit for bit; bump the pins
# here and CI follows. (`go run pkg@version` resolves through the module
# proxy, so first use needs network.)
STATICCHECK_VERSION  ?= 2025.1.1
GOLANGCI_VERSION     ?= v1.64.8

lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run github.com/golangci/golangci-lint/cmd/golangci-lint@$(GOLANGCI_VERSION) run

# -shuffle=on randomizes test order to keep tests order-independent.
test:
	$(GO) test -shuffle=on ./...

# examples runs every self-validating example (a few seconds each); each
# exits non-zero when its own check fails (a checksum, mass or bit-identity
# mismatch, or a failed analytic validation).
EXAMPLES = gpusim heat3d multifield quickstart wave2d
examples:
	@for ex in $(EXAMPLES); do \
		echo "== examples/$$ex"; \
		$(GO) run ./examples/$$ex || exit 1; \
	done

# cover merges a single coverage profile across every package (each test
# binary instruments the whole module via -coverpkg) and enforces the soft
# floor committed in COVERAGE_FLOOR: total statement coverage must not drop
# below it. Regenerate the floor deliberately when coverage rises.
#
# The cross-process shmem transport executes its worker-side paths in
# spawned worker processes, which `go test`'s own profile cannot see — and
# runtime/coverage cannot emit from test binaries at all (their coverage
# meta-data is not registered the way `go build -cover` registers it). So
# the target also builds cmd/soak with -cover, drives two supervised
# crash-and-recover sweeps under GOCOVERDIR (supervisor + every worker
# process, first lives and respawns, auto-emit binary pods on exit) — one
# on shmem with a caller-supplied -ckpt-dir, one on tcp with the private
# checkpoint directory — and folds `go tool covdata textfmt` of those pods
# into the profile before the floor check. Worker-side statements thus
# count as covered.
COVER_PROFILE ?= cover.out
COVER_FLOOR_FILE ?= COVERAGE_FLOOR
COVER_WORKER_DIR ?= /tmp/brick-worker-cov

cover:
	rm -rf $(COVER_WORKER_DIR) && mkdir -p $(COVER_WORKER_DIR)/pods $(COVER_WORKER_DIR)/ckpt
	$(GO) test -count=1 -coverprofile=$(COVER_PROFILE) -coverpkg=./... ./...
	$(GO) build -cover -coverpkg=./... -o $(COVER_WORKER_DIR)/soak ./cmd/soak
	GOCOVERDIR=$(COVER_WORKER_DIR)/pods $(COVER_WORKER_DIR)/soak -impls layout \
		-transport shmem -ckpt -ckpt-every 2 -ckpt-dir $(COVER_WORKER_DIR)/ckpt \
		-fault 'kill:rank=3:nth=2'
	GOCOVERDIR=$(COVER_WORKER_DIR)/pods $(COVER_WORKER_DIR)/soak -impls layout \
		-transport tcp -ckpt -ckpt-every 2 -fault 'kill:rank=3:nth=2'
	$(GO) tool covdata textfmt -i=$(COVER_WORKER_DIR)/pods -o=$(COVER_PROFILE).workers
	tail -n +2 $(COVER_PROFILE).workers >> $(COVER_PROFILE)
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	floor=$$(cat $(COVER_FLOOR_FILE)); \
	echo "total coverage: $$total% (floor: $$floor%)"; \
	ok=$$(awk -v t="$$total" -v f="$$floor" 'BEGIN { print (t >= f) ? 1 : 0 }'); \
	if [ "$$ok" != 1 ]; then \
		echo "cover: total coverage $$total% fell below the committed floor $$floor%"; \
		exit 1; \
	fi

race:
	$(GO) test -race ./...

# race-recovery repeats the recovery tests under -race. Their races are
# timing-dependent (tcp reader goroutines against a restore, coordinator
# aborts against a recovery round, in-process ranks reading the restore
# step the policy pins), so one pass proves little.
# The mpi tests take milliseconds each: the recovery round, the parked
# listing and the respawn oracle, and the one-shot matcher's callers racing
# one another — tcp readers and chan senders posting into it, the
# watchdog's listing and the epoch reset.
race-recovery:
	$(GO) test -race -count=20 -run 'TestTCPNetFaultRecovery$$' ./internal/harness
	$(GO) test -race -count=5 -run 'TestSupervisedRecoveryAllImpls$$' ./internal/harness
	$(GO) test -race -count=5 -run 'TestRecoveryPanicBitIdentical$$' ./internal/harness
	$(GO) test -race -count=20 -run '^(TestRecoveryRoundConformance|TestStallReportListsParkedWorkers|TestPersistentOracleRespawn|TestConformanceOneShot|TestConformanceRespawnCycle|TestCollectiveOracleAcrossWorkers)$$' ./internal/mpi

# soak runs the fault-injection soak under the race detector: every CPU
# implementation on 8 ranks, once clean and once under benign faults
# (per-send delays with jitter, a one-shot stall, forced MemMap
# degradation) with the watchdog armed, asserting bit-identical checksums.
# The flight recorder stays on throughout; if the soak wedges or aborts, the
# brick-flight/v1 artifact at SOAK_FLIGHT is the forensic record (CI uploads
# it on failure; inspect with flightreport). See docs/robustness.md.
SOAK_FAULT ?= delay:rank=*:mean=200us:jitter=0.5,stall:rank=3:nth=40:dur=5ms,mapfail:rank=1
SOAK_FLIGHT ?= /tmp/brick-soak-flight.bin
# SOAK_TRANSPORT=shmem or tcp runs every rank as a spawned worker process —
# over a shared segment or framed loopback TCP streams (failed runs then
# leave one flight artifact per worker, $(SOAK_FLIGHT).rank<N>, and worker
# logs under BRICK_WORKER_LOGS if set). On tcp the benign spec additionally
# injects frame-layer delays (SOAK_NET_FAULT), jittering the stream timing
# under the heartbeat/watchdog machinery; drops and dups are fatal without
# checkpoints, so those live in soak-recover.
SOAK_TRANSPORT ?= chan
SOAK_NET_FAULT ?= netdelay:rank=*:mean=50us:jitter=0.5
ifeq ($(SOAK_TRANSPORT),tcp)
SOAK_FAULT_FULL = $(SOAK_FAULT),$(SOAK_NET_FAULT)
else
SOAK_FAULT_FULL = $(SOAK_FAULT)
endif
soak:
	$(GO) run -race ./cmd/soak -fault '$(SOAK_FAULT_FULL)' \
		-transport $(SOAK_TRANSPORT) \
		-flight -flight-out $(SOAK_FLIGHT)

# soak-recover is the crash-and-recover soak: fatal faults (an injected
# rank panic, silent payload corruption caught by -verify-crc, a MemMap
# degradation) with checkpoints every 2 steps; every implementation must
# recover and still finish bit-identical to its fault-free run. Committed
# checkpoint epochs spill to SOAK_CKPT_DIR for postmortem on failure.
# With SOAK_TRANSPORT=shmem each rank is a worker process and the spec
# additionally SIGKILLs one worker mid-run (SOAK_RECOVER_PROC_FAULT): the
# supervisor must respawn it from the spilled epochs. Process faults are
# meaningless in-process, so the kill clause is only appended off chan.
# SOAK_TRANSPORT=tcp further appends frame-layer faults
# (SOAK_RECOVER_NET_FAULT): a dropped frame (lost-frame abort → recovery),
# a duplicated frame (absorbed by the exactly-once filter), and jittered
# per-frame delays — and widens the recovery budget for the extra abort.
SOAK_RECOVER_FAULT ?= panic:rank=3:step=5,corrupt:rank=2:nth=40:flips=2,mapfail:rank=1
SOAK_RECOVER_PROC_FAULT ?= kill:rank=3:nth=45
SOAK_RECOVER_NET_FAULT ?= netdrop:rank=1:nth=12,netdup:rank=2:nth=10,netdelay:rank=0:mean=100us:jitter=0.5
SOAK_CKPT_DIR ?= /tmp/brick-soak-ckpt
SOAK_RECOVER_FLIGHT ?= /tmp/brick-soak-recover-flight.bin
SOAK_MAX_RECOVERIES ?= 3
ifeq ($(SOAK_TRANSPORT),chan)
SOAK_RECOVER_FAULT_FULL = $(SOAK_RECOVER_FAULT)
else ifeq ($(SOAK_TRANSPORT),tcp)
SOAK_RECOVER_FAULT_FULL = $(SOAK_RECOVER_FAULT),$(SOAK_RECOVER_PROC_FAULT),$(SOAK_RECOVER_NET_FAULT)
SOAK_MAX_RECOVERIES = 5
else
SOAK_RECOVER_FAULT_FULL = $(SOAK_RECOVER_FAULT),$(SOAK_RECOVER_PROC_FAULT)
endif
soak-recover:
	$(GO) run -race ./cmd/soak -ckpt -ckpt-every 2 -verify-crc \
		-transport $(SOAK_TRANSPORT) -max-recoveries $(SOAK_MAX_RECOVERIES) \
		-ckpt-dir $(SOAK_CKPT_DIR) -fault '$(SOAK_RECOVER_FAULT_FULL)' \
		-flight -flight-out $(SOAK_RECOVER_FLIGHT)

# netcal measures the network model's α (ping-pong) and β (bandwidth
# sweep) over the tcp transport's framed loopback streams and writes a
# brick-netmodel/v1 profile; pass it anywhere a machine name is accepted
# (e.g. `weak -machine $(NETCAL_OUT)`). See cmd/netcal.
NETCAL_OUT ?= brick-netmodel.json
netcal:
	$(GO) run ./cmd/netcal -o $(NETCAL_OUT)

# One iteration of every benchmark as a smoke test (no unit tests: -run '^$').
bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' ./...

# benchmark-smoke vets and tests the frozen benchmark, a nested module the
# root ./... never builds: it compiles against public layer functions
# (core.NewLayoutExchange, grid.NewPackExchanger, harness.Config, ...), so a
# signature change that breaks it must fail here, not in the driver.
# Offline and read-only: GOWORK=off, nothing under benchmark/ is written.
benchmark-smoke:
	cd benchmark && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# bench-allocs fails if the persistent per-step hot path regresses above
# zero heap allocations (Start/Complete of every exchange variant: Layout
# and MemMap — partitioned and not — MemMap over copy windows, Shift, YASK
# pack and MPI_Types; the raw persistent-request Start/Wait cycle on chan,
# shmem and tcp, and a whole pipelined brick step of the harness), if the
# flight recorder's record path (enabled or disabled) starts allocating, or
# if a serial stencil Apply (bricks or arrays, 7pt or 125pt) allocates at
# all.
bench-allocs:
	$(GO) test -count=1 -run 'TestApplyZeroAllocs' ./internal/stencil/
	$(GO) test -count=1 -run 'TestPersistentHotPathAllocs|TestPartitionedHotPathAllocs' ./internal/core/
	$(GO) test -count=1 -run 'TestStagedHotPathAllocs' ./internal/grid/
	$(GO) test -count=1 -run 'TestPersistentZeroAllocSteps' ./internal/mpi/
	$(GO) test -count=1 -run 'TestPipelinedStepZeroAllocs' ./internal/harness/
	$(GO) test -count=1 -run 'TestRecordAllocs' ./internal/flight/

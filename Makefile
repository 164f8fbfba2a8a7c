# Development entry points. `make check` is the gate CI runs.

GO ?= go

.PHONY: check vet build bench-build bench-smoke test race chaos tamper fuzz fuzz-smoke difftest bench rungs mvcc-race overload-smoke cache-stress powercut group-commit soak soak-short soak-update soak-update-short profile fmt

check: vet build bench bench-build bench-smoke race tamper fuzz-smoke cache-stress mvcc-race overload-smoke powercut group-commit soak-short soak-update-short

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The benchmark is a nested module outside root ./..., so an internal/*
# API change can break benchmark/layers.go unseen; build and vet it.
bench-build:
	cd benchmark && $(GO) build ./... && $(GO) vet ./...

# The benchmark's quick end-to-end pass (128 KB document, one second
# per workload) with the traced layer replay on: a change that trips a
# workload guard, fails an operation or breaks a call benchmark/layers.go
# makes shows up here, not as a failed run in the benchmark pipeline.
bench-smoke:
	bash benchmark/run.sh -smoke --trace 1

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault-injection suite for the remote transport, on its own for
# quick iteration (it is also part of `race`).
chaos:
	$(GO) test -race -v -run 'TestChaos|TestBreaker|TestDeadline|TestPerAttempt|TestChecksum|TestTruncation|TestRetryRecovers' ./internal/remote/

# The active-tampering suite: every integrity attack (dropped block,
# swapped ciphertext, stripped proof, rollback replay, forged
# aggregate, bit-flipped persistence) must be detected, under -race.
tamper:
	$(GO) test -race -run 'Tamper|Integrity|Proof|Verif|Rollback|BitFlip|TruncationQuarantined|PersistFailure' \
		./internal/attack/ ./internal/core/ ./internal/remote/ ./internal/wire/ ./internal/authtree/

# Short fuzz pass over every wire decoder (CI-friendly duration).
fuzz:
	$(GO) test ./internal/wire/ -fuzz FuzzUnmarshalDB -fuzztime 20s
	$(GO) test ./internal/wire/ -fuzz FuzzUnmarshalQuery -fuzztime 20s
	$(GO) test ./internal/wire/ -fuzz FuzzUnmarshalAnswer -fuzztime 20s
	$(GO) test ./internal/wire/ -fuzz 'FuzzUnmarshalUpdate$$' -fuzztime 20s
	$(GO) test ./internal/wire/ -fuzz FuzzUnmarshalUpdateBatch -fuzztime 20s
	$(GO) test ./internal/wire/ -fuzz FuzzDecodeProof -fuzztime 20s
	$(GO) test ./internal/wire/ -fuzz FuzzDecodeStream -fuzztime 20s
	$(GO) test ./internal/wire/ -fuzz FuzzPlaceholderScan -fuzztime 20s

# Quick fuzz pass over the two text parsers (query strings and SC
# specs are operator input), the WAL record decoder (crash-torn
# frames are hostile input to recovery), the placeholder scanner
# (server, verifier and client all read fragments through it), the
# one answer decoder (every query answer the untrusted server sends),
# the proof decoder (every verified answer's trailer, a probe's band
# runs included) and the database decoder (every upload and snapshot,
# whose DSI bounds it must reject unless 0 <= Lo < Hi <= 1); part of
# `check`.
fuzz-smoke:
	$(GO) test ./internal/xpath/ -fuzz FuzzParseXPath -fuzztime 10s
	$(GO) test ./internal/sc/ -fuzz FuzzParseSC -fuzztime 10s
	$(GO) test ./internal/walog/ -fuzz FuzzDecodeWALRecord -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzPlaceholderScan -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzDecodeStream -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzDecodeProof -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzUnmarshalDB -fuzztime 10s

# Open-ended differential fuzzing: encrypted pipeline vs plaintext
# evaluator on randomized documents/SCs/queries under every scheme.
# Override the budget with DIFFTEST_DURATION=10m etc.
DIFFTEST_DURATION ?= 1m
difftest:
	$(GO) test ./internal/difftest/ -run OpenEnded -difftest.duration $(DIFFTEST_DURATION)

# One pass over the root package's micro-benchmarks (part of
# `check`): a benchmark that breaks or fails shows up here.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The server's boot and point-lookup rungs, ten runs each with
# allocation counts, for before/after comparisons (not part of
# `check`).
rungs:
	$(GO) test -run '^$$' -bench 'BenchmarkServerNew|BenchmarkPointQuery' -benchmem -count 10 .

# MVCC snapshot-read contract under -race (part of `check`): the
# NumBlocks data-race regression, the returned-bytes aliasing
# contract, and the snapshot-isolation linearizability check (every
# concurrent answer verifies against the Merkle root of exactly one
# generation).
mvcc-race:
	$(GO) test -race -count=1 \
		-run 'TestNumBlocksRaceWithUpdates|TestReturnedBytesImmutableUnderUpdates|TestSnapshotIsolationLinearizable' \
		./internal/server/

# Quick overload-protection smoke (part of `check`): the cost gate's
# FIFO, sheds and abandoned-waiter cleanup, the drain-rate
# Retry-After, deadline rejection on arrival and cancellation of
# queued work, Retry-After honored by the client, slow-loris cutoff.
overload-smoke:
	$(GO) test -race -count=1 -run 'TestOverload|TestDeadline|TestGate|TestRetryAfter|TestControllerDeadline|TestClientHonorsRetryAfter|TestSlowLoris' ./internal/remote/ ./internal/admission/

# The caching-layer correctness suite under -race: generation
# invalidation, concurrent readers racing an updater, and the
# breaker-flip chaos sequence over a cached answer.
cache-stress:
	$(GO) test -race -run 'Cache|Generation' \
		./internal/core/ ./internal/server/ ./internal/client/ ./internal/remote/ ./internal/gencache/

# The powercut soak: POWERCUT_CYCLES kill/recover cycles against the
# durable store on a fault-injecting filesystem with torn tails,
# under -race. Every cycle asserts zero acknowledged-update loss and
# zero unverifiable serves; any quarantine fails. The batch-atomicity
# variant cuts power around whole group commits: an un-fsynced batch
# must be wholly replayed or wholly absent, never partial. Part of
# `check`.
POWERCUT_CYCLES ?= 200
powercut:
	POWERCUT_CYCLES=$(POWERCUT_CYCLES) \
		$(GO) test -race -count=1 -run 'TestPowercutSoak|TestPowercutBatchAtomicity' ./internal/remote/

# The group-commit contract, five times over under -race: batches form
# by leadership (updates prepared while a send is parked share the next
# batch; no size, timer or flush call), readers and writers wait at the
# band and block barriers without failing the batch, a rejected batch
# and everything queued behind it roll the owner's tables back, an
# in-doubt batch is unwound only by a refusal after the server's dedup
# lookup, and the WAL shares one fsync among the records appended while
# the previous one ran. Part of `check`.
group-commit:
	$(GO) test -race -count=5 \
		-run 'TestBatch|Barrier|TestSecondWriter|TestReaderContext|LeaderContext|Rejection|TestRejectedBatch|GroupCommit|ParkedInFsync|TestResetReleases|InDoubt|RejectedResend|TestUpdateOutcome' \
		./internal/core/ ./internal/remote/ ./internal/walog/

# Long differential soak with caches on and updates interleaved
# between query rounds. SOAK_DURATION=10m reproduces the release
# gate; `check` runs the 1-minute variant.
SOAK_DURATION ?= 10m
soak:
	$(GO) test -race ./internal/difftest/ -run OpenEnded -difftest.duration $(SOAK_DURATION) -timeout 0

soak-short:
	$(GO) test -race ./internal/difftest/ -run OpenEnded -difftest.duration 1m

# Mixed reader/writer soak of the group-commit update pipeline over
# the full remote stack, under -race: writers update concurrently, so
# those that prepare while a batch is in flight share the next one,
# while readers run verified queries and aggregates; once every writer
# has returned, the state must hold every acked write. Writer share is configurable
# (UPDATE_SOAK_WRITERPCT); `check` runs the 30-second variant.
UPDATE_SOAK_DURATION ?= 10m
UPDATE_SOAK_WORKERS ?= 16
UPDATE_SOAK_WRITERPCT ?= 25
soak-update:
	$(GO) test -race ./internal/difftest/ -run UpdateSoak -timeout 0 \
		-updatesoak.duration $(UPDATE_SOAK_DURATION) \
		-updatesoak.workers $(UPDATE_SOAK_WORKERS) \
		-updatesoak.writerpct $(UPDATE_SOAK_WRITERPCT)

soak-update-short:
	$(GO) test -race ./internal/difftest/ -run UpdateSoak -updatesoak.duration 30s

# Profile the server: boots xserve with pprof on, reminds how to grab
# a profile. (Profiles also work against any running xserve.)
profile:
	@echo "xserve serves pprof at /debug/pprof/ by default:"
	@echo "  go tool pprof http://localhost:8080/debug/pprof/profile?seconds=30"
	@echo "  go tool pprof http://localhost:8080/debug/pprof/heap"
	$(GO) run ./cmd/xserve -listen :8080

fmt:
	gofmt -l -w .

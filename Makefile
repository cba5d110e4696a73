# Verification targets. `make verify` is what CI runs on every PR: the
# concurrency introduced by the parallel trajectory/synthesis engines is
# always exercised under the race detector. The -short path stays under
# ~5 minutes on a few cores; `make verify-full` runs the complete suite.

GO ?= go

.PHONY: build vet test test-race verify verify-full bench bench-smoke cache-smoke serve-smoke corpus-smoke fidelity-smoke fmt-check lint lint-ignores lint-smoke

# Packages holding the hot-path micro-benchmarks `make bench` runs:
# objective/gradient evaluation and synthesis (synth), gate-apply kernels
# (linalg), cached-vs-cold synthesis (ucache), the simulator and noise
# engines, the partitioner scan, plus the dual annealer behind
# ensemble selection.
BENCH_PKGS = ./internal/synth ./internal/linalg ./internal/ucache ./internal/noise ./internal/sim ./internal/partition ./internal/anneal

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race -short ./...

# `make lint` runs the project's own static-analysis suite
# (cmd/questlint): determinism, context propagation, budget-error
# wrapping, zero-value sentinels, float-equality hygiene, plus the
# flow-sensitive concurrency/durability checks (goroleak, lockflow,
# fsyncorder, poolnonest). Zero findings is the invariant; suppress only
# with `// lint:ignore <check> <reason>` (see DESIGN.md §4e) and audit
# the suppressions with `make lint-ignores` — a directive whose check no
# longer fires is itself reported as stale. CI sets LINT_FLAGS=-github
# so findings land as PR annotations.
LINT_FLAGS ?=

lint:
	$(GO) run ./cmd/questlint $(LINT_FLAGS) ./...

lint-ignores:
	$(GO) run ./cmd/questlint -list-ignores

# `make lint-smoke` runs questlint against the seeded-violation module
# (cmd/questlint/testdata/badmod) and asserts every check fires: a
# silently-broken analyzer fails this target even though the real tree
# stays green.
lint-smoke:
	@out=$$($(GO) run ./cmd/questlint -root cmd/questlint/testdata/badmod); st=$$?; \
	[ $$st -eq 1 ] || { echo "lint-smoke: exit $$st, want 1"; echo "$$out"; exit 1; }; \
	for check in determinism floateq goroleak lockflow fsyncorder poolnonest; do \
		echo "$$out" | grep -q " $$check: " || \
			{ echo "lint-smoke: $$check did not fire on the seeded module"; echo "$$out"; exit 1; }; \
	done; \
	echo "$$out" | grep -q "stale lint:ignore" || \
		{ echo "lint-smoke: stale-suppression audit did not fire"; echo "$$out"; exit 1; }; \
	echo "lint-smoke: all checks fired on the seeded module"

verify: fmt-check vet lint build test-race

verify-full: vet lint build
	$(GO) test -race -timeout 30m ./...

# `make bench` runs the hot-path micro-benchmarks and prints their
# results. The end-to-end numbers (latency, throughput, CNOT ratio,
# ensemble TVD) come from questbench (questbench/BENCHMARK.md).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCH_PKGS)

# One-iteration compile-and-run pass over every benchmark, including the
# pipeline's ε-sweep and selection benchmarks and the fidelity
# estimator's; CI uses it to catch kernel/benchmark regressions without
# paying for a full bench run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ $(BENCH_PKGS) ./internal/pipeline ./internal/fidelity

# `make cache-smoke` exercises the disk-backed synthesis cache across two
# real processes: a cold run populates the journal in a temp dir, then a
# second process must be served entirely from it (zero misses).
cache-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/quest -algo tfim -n 4 -synth-cache-dir "$$dir" >/dev/null || exit 1; \
	out=$$($(GO) run ./cmd/quest -algo tfim -n 4 -synth-cache-dir "$$dir") || exit 1; \
	echo "$$out" | grep 'synthesis cache:'; \
	echo "$$out" | grep -q 'synthesis cache: [1-9][0-9]* hits, 0 misses' || \
		{ echo "cache-smoke: warm run was not served from the disk cache"; exit 1; }

# `make serve-smoke` proves questd's crash-safety contract across real
# processes. A reference server computes a job cleanly; a second server
# (with a chaos stall that holds workers mid-job) is kill -9'd while the
# job is running, restarted on the same data directory, and must recover
# the journaled job and serve a byte-for-byte identical result.
serve-smoke:
	@dir=$$(mktemp -d); refpid=; crashpid=; recpid=; \
	trap 'kill $$refpid $$crashpid $$recpid 2>/dev/null; rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/questd" ./cmd/questd || exit 1; \
	$(GO) build -o "$$dir/questload" ./cmd/questload || exit 1; \
	\
	"$$dir/questd" -dir "$$dir/ref-data" -addr 127.0.0.1:0 -addr-file "$$dir/ref.addr" \
		>"$$dir/ref.log" 2>&1 & refpid=$$!; \
	for i in $$(seq 50); do [ -s "$$dir/ref.addr" ] && break; sleep 0.1; done; \
	[ -s "$$dir/ref.addr" ] || { echo "serve-smoke: reference questd never listened"; cat "$$dir/ref.log"; exit 1; }; \
	id=$$("$$dir/questload" -addr @"$$dir/ref.addr" -submit -algo qft -qubits 5) || exit 1; \
	"$$dir/questload" -addr @"$$dir/ref.addr" -wait "$$id" >/dev/null || { cat "$$dir/ref.log"; exit 1; }; \
	"$$dir/questload" -addr @"$$dir/ref.addr" -fetch "$$id" >"$$dir/ref.json" || exit 1; \
	kill $$refpid 2>/dev/null; refpid=; \
	\
	"$$dir/questd" -dir "$$dir/crash-data" -addr 127.0.0.1:0 -addr-file "$$dir/crash.addr" \
		-chaos-stall 60s >"$$dir/crash1.log" 2>&1 & crashpid=$$!; \
	for i in $$(seq 50); do [ -s "$$dir/crash.addr" ] && break; sleep 0.1; done; \
	[ -s "$$dir/crash.addr" ] || { echo "serve-smoke: crash questd never listened"; cat "$$dir/crash1.log"; exit 1; }; \
	id2=$$("$$dir/questload" -addr @"$$dir/crash.addr" -submit -algo qft -qubits 5) || exit 1; \
	[ "$$id" = "$$id2" ] || { echo "serve-smoke: job ids diverged ($$id vs $$id2)"; exit 1; }; \
	sleep 1; \
	kill -9 $$crashpid 2>/dev/null; wait $$crashpid 2>/dev/null; crashpid=; \
	\
	rm -f "$$dir/crash.addr"; \
	"$$dir/questd" -dir "$$dir/crash-data" -addr 127.0.0.1:0 -addr-file "$$dir/crash.addr" \
		>"$$dir/crash2.log" 2>&1 & recpid=$$!; \
	for i in $$(seq 50); do [ -s "$$dir/crash.addr" ] && break; sleep 0.1; done; \
	[ -s "$$dir/crash.addr" ] || { echo "serve-smoke: restarted questd never listened"; cat "$$dir/crash2.log"; exit 1; }; \
	grep -q '1 jobs recovered' "$$dir/crash2.log" || \
		{ echo "serve-smoke: restart did not recover the in-flight job"; cat "$$dir/crash2.log"; exit 1; }; \
	"$$dir/questload" -addr @"$$dir/crash.addr" -wait "$$id2" >/dev/null || { cat "$$dir/crash2.log"; exit 1; }; \
	"$$dir/questload" -addr @"$$dir/crash.addr" -fetch "$$id2" >"$$dir/crash.json" || exit 1; \
	cmp "$$dir/ref.json" "$$dir/crash.json" || \
		{ echo "serve-smoke: recovered result differs from the clean reference run"; exit 1; }; \
	echo "serve-smoke: kill -9 mid-job recovered to a byte-identical result"

# `make corpus-smoke` compiles the committed big-circuit corpus
# (examples/circuits/corpus) twice through the batch driver. The
# per-circuit `corpus <file> pass=N ...` lines, wall_ns stripped, must
# match examples/golden/corpus-smoke.golden byte for byte (they do not
# depend on -parallelism or -jobs, so a change to any circuit's blocks,
# CNOTs or ensemble size M needs the golden re-recorded with a stated
# reason). Pass 1 must finish with zero degradations, pass 2 must be
# served entirely from the warm shared synthesis cache (hits > 0,
# misses = 0), and no circuit may come out with more CNOTs than it went
# in with (approx_cnots <= cnots on every per-circuit line).
# -samples 4 keeps it CI-cheap.
corpus-smoke:
	@out=$$($(GO) run ./cmd/quest -corpus examples/circuits/corpus -passes 2 -samples 4) || exit 1; \
	echo "$$out" | grep '^corpus-total'; \
	echo "$$out" | grep -E '^corpus [^ ]+ pass=' | sed 's/ wall_ns=[0-9]*$$//' | \
		diff -u examples/golden/corpus-smoke.golden - || \
		{ echo "corpus-smoke: per-circuit results diverged from the golden"; exit 1; }; \
	echo "$$out" | awk '/^corpus [^ ]+ pass=/ { c = a = -1; \
		for (i = 1; i <= NF; i++) { split($$i, kv, "="); \
			if (kv[1] == "cnots") c = kv[2] + 0; if (kv[1] == "approx_cnots") a = kv[2] + 0 } \
		n++; if (c < 0 || a < 0 || a > c) { print "corpus-smoke: " $$2 " " $$3 " approx_cnots=" a " > cnots=" c; bad = 1 } } \
		END { exit bad || n == 0 }' || \
		{ echo "corpus-smoke: a circuit came out with more CNOTs than it went in with"; exit 1; }; \
	echo "$$out" | grep '^corpus-total' | grep 'pass=1 ' | grep -q 'degradations=0 ' || \
		{ echo "corpus-smoke: pass 1 had degradations"; exit 1; }; \
	echo "$$out" | grep '^corpus-total' | grep 'pass=2 ' | \
		grep -q 'degradations=0 cache_hits=[1-9][0-9]* cache_misses=0 ' || \
		{ echo "corpus-smoke: pass 2 was not served entirely from the warm shared cache"; exit 1; }

# `make fidelity-smoke` pins the objective refactor's compatibility
# contract across a real CLI run: with -objective cnot the quest output
# (timing lines stripped) must be byte-identical to the golden captured
# before objectives became pluggable, and the noise-aware
# fidelity:manila objective must compile the same circuit end-to-end.
fidelity-smoke:
	@out=$$($(GO) run ./cmd/quest -algo tfim -n 4 -objective cnot | grep -v '^timing:') || exit 1; \
	echo "$$out" | diff -u examples/golden/fidelity-smoke-cnot.golden - || \
		{ echo "fidelity-smoke: -objective cnot diverged from the pre-objective golden"; exit 1; }; \
	$(GO) run ./cmd/quest -algo tfim -n 4 -objective fidelity:manila >/dev/null || \
		{ echo "fidelity-smoke: fidelity:manila run failed"; exit 1; }; \
	echo "fidelity-smoke: cnot output bit-identical to the pre-objective golden; fidelity:manila ran clean"

fmt-check:
	@out=$$(gofmt -l cmd internal examples *.go); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

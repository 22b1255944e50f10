GO ?= go

.PHONY: all vet build test race purego cross results-check results-check-purego loc alloc-gate bench bench-smoke hetero-ratio rss-ratio fuzz-smoke microbench profile-gradient calibrate collective-bench train-bench check

all: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# purego runs the packages that sit on the tensor kernels with the AVX2
# assembly compiled out, so the Go loops (the kernels' specification, and what
# every other architecture runs) keep passing on amd64 too, recorded
# trajectory digests included. The parameter-server client forms each pushed
# delta chunk with a kernel, so ps is among them.
purego:
	$(GO) test -tags purego ./internal/tensor ./internal/opt ./internal/model ./internal/core ./internal/ps

# cross checks that the fallback compiles where there is no assembly.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor

# results-check re-runs every simulated experiment and requires the committed
# results_full.txt byte for byte: virtual time is deterministic, so any diff
# means a priced duration or a trajectory moved.
results-check:
	$(GO) run ./cmd/rnabench all | diff - results_full.txt

# results-check-purego does the same with the AVX2 assembly compiled out: the
# simulator's fold runs through the Scale/AddScaled kernels, so the recorded
# file must not depend on which kernel path ran.
results-check-purego:
	$(GO) run -tags purego ./cmd/rnabench all | diff - results_full.txt

# check is the CI gate: static analysis (vet's asmdecl covers the assembly
# stubs), full build, race-enabled tests (which run the Go loops: the
# assembly switches itself off under -race), both kernel paths, then the
# recorded simulation results on both kernel paths.
check: vet build race purego cross results-check results-check-purego

# loc prints the non-test Go lines of every internal package and command, then
# their total: the figure a simplicity change reports before and after,
# counted the same way every time (`find internal/core -name '*.go' ! -name
# '*_test.go' | xargs cat | wc -l`).
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" $$d; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# alloc-gate runs the allocation-count tests WITHOUT the race detector: they
# skip under -race (its instrumentation allocates), so `check` alone would
# never run them. They hold the RNA data path to zero gradient-sized
# allocations per step (accumulator lease cycle, in-place partial AllReduce,
# parameter-server exchange into a persistent buffer, whole or by chunk run,
# the two end-to-end worker gates, the hierarchical run over TCP, where every
# group member exchanges its own chunks, and the owner-computes ring pair
# over 4-rank TCP, whose chunks land in the caller's vector).
alloc-gate:
	$(GO) test -count=1 -run 'Alloc' ./internal/core ./internal/collective ./internal/ps

# bench refreshes both machine-readable benchmark reports
# (BENCH_collective.json and BENCH_train.json).
bench: collective-bench train-bench

# bench-smoke runs the ring regression guard against BENCH_collective.json
# and the sharded Adam slice (real workers over TCP, bit-identical to
# replicated) without writing any JSON — a seconds-long CI check that the
# benchmark harness still works.
bench-smoke:
	$(GO) run ./cmd/rnabench -bench-smoke

# ratio-of-medians runs the repository's benchmark (benchmark/run.sh, real core
# workers over loopback TCP) on workloads $(1) and $(2) for three seeds at
# $(4) seconds, prints the three values of metric $(3) and their median for
# each, then median $(1) / median $(2). It fails when a run printed no value,
# and when the ratio is above $(5), if given.
define ratio-of-medians
@for w in $(1) $(2); do for s in 1 2 3; do \
	bash benchmark/run.sh --workload $$w --seed $$s --seconds $(4) --trace 0 | tail -n 1 | \
		sed -n 's/.*"$(3)":{"value":\([0-9.e+-]*\).*/'$$w' \1/p'; \
done; done | sort -k1,1 -k2,2g | awk -v a=$(1) -v b=$(2) -v gate=$(or $(5),0) \
	'{ v[$$1] = v[$$1] " " $$2; if (++n[$$1] == 2) med[$$1] = $$2 } \
	END { if (n[a] != 3 || n[b] != 3) { print "$@: a run reported no $(3)"; exit 1 } \
	      printf "%s $(3)%s, median %.3f\n%s $(3)%s, median %.3f\n", a, v[a], med[a], b, v[b], med[b]; \
	      printf "%s / %s = %.2f\n", a, b, med[a] / med[b]; \
	      exit (gate > 0 && med[a] / med[b] > gate) }'
endef

# hetero-ratio is the paper's headline number on the real runtime: time to the
# target loss under a uniform 0-50 ms delay per rank per step, hetero_bsp over
# hetero_rna (the paper's Fig. 6 reads 1.4-1.8x; ROADMAP's bar is 1.3, but a
# shared runner's sleeps are too noisy to gate on). About 2.5 minutes;
# HETERO_SECONDS shortens the runs.
HETERO_SECONDS ?= 20
hetero-ratio:
	$(call ratio-of-medians,hetero_bsp,hetero_rna,time_to_target_s,$(HETERO_SECONDS))

# rss-ratio is what the non-blocking path costs in memory where nothing
# straggles: peak_rss_mb of dense_rna over dense_bsp (the same inputs, 1.1 MB
# gradient). Peak RSS spreads under 1 % run to run, so this one gates: it
# fails above 1.3 (2.8 while every gradient kept its own buffer, 1.45 once
# gradients of one parameter version shared one, 1.24 since the reduced
# gradient buffer becomes the next parameter version). About 45 seconds.
RSS_SECONDS ?= 8
rss-ratio:
	$(call ratio-of-medians,dense_rna,dense_bsp,peak_rss_mb,$(RSS_SECONDS),1.3)

# fuzz-smoke runs each wire-protocol fuzz target for a short budget — enough
# to cover the seeded v1 corpus (header truncations, forged fields, frames of
# the f32/f16/i8 dtypes earlier builds shipped, hello garbage,
# parameter-server push/pull/ack frames with packed mode<<24|chunk tags) plus
# a burst of mutations, quick enough for CI. The kernel target holds the AVX2
# bodies to the bits of the Go loops over random lengths, misalignments and
# values; the controller target holds the trigger rule
# (probed tag, bounded-delay floor, drain) over random interleavings of
# Ready, Await, Probes and Forget under every policy. FuzzRecvInto holds a
# frame landed off the socket (copy or add, with or without a tail) to the
# bits of the pooled decode it replaces; its minimization budget is short
# because its corpus holds multi-KB frames, whose minimization would eat the
# whole smoke budget. FuzzServerRequests sends the parameter server request
# sequences from two client ranks (chunk indices in and past the table, forged
# tags, modes, dtypes and payload lengths, version horizons that never wait):
# each request is acked with the right length, version and values or ends the
# sender's service with ps.ErrBadRequest, and two clients exchanging
# complementary chunk runs leave the model one whole-vector client leaves.
fuzz-smoke:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzReadMessage -fuzztime 20s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzRecvInto -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzReadHello -fuzztime 10s
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzKernelsMatchGeneric -fuzztime 10s
	$(GO) test ./internal/controller/ -run '^$$' -fuzz FuzzControllerTrigger -fuzztime 10s
	$(GO) test ./internal/ps/ -run '^$$' -fuzz FuzzServerRequests -fuzztime 10s

# microbench runs the collective, kernel, model and engine micro-benchmarks
# interactively.
microbench:
	$(GO) test -run xxx -bench 'BenchmarkRingAllReduce|BenchmarkPartialRingAllReduce' -benchmem ./internal/collective/
	$(GO) test -run xxx -bench BenchmarkTensorKernels -benchmem ./internal/tensor/
	$(GO) test -run xxx -bench BenchmarkModel -benchmem ./internal/model/
	$(GO) test -run xxx -bench BenchmarkTrainsim -benchmem ./internal/trainsim/

# profile-gradient profiles the MLP gradient micro-benchmarks (the dense
# workloads' backprop, one CPU) into the git-ignored $(PROFILE_DIR); read it
# with `go tool pprof -top $(PROFILE_DIR)/model.test $(PROFILE_DIR)/gradient.prof`.
PROFILE_DIR ?= .profile
profile-gradient:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench BenchmarkModelGradientMLP -cpu 1 -o $(PROFILE_DIR)/model.test \
		-outputdir $(PROFILE_DIR) -cpuprofile gradient.prof ./internal/model

# collective-bench regenerates the machine-readable BENCH_collective.json
# (per-algorithm sweep + crossover table). Run `make calibrate` first to
# drive the auto rows with constants fitted on this machine.
collective-bench:
	$(GO) run ./cmd/rnabench -collective -collective-out BENCH_collective.json

# calibrate fits the per-algorithm alpha-beta cost model on this machine and
# persists it for the auto-selector.
calibrate:
	$(GO) run ./cmd/rnabench -calibrate -calibration CALIBRATION_collective.json

# train-bench regenerates the machine-readable BENCH_train.json.
train-bench:
	$(GO) run ./cmd/rnabench -train -train-out BENCH_train.json

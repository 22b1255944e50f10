GO ?= go

.PHONY: all vet build test race purego cross results-check results-check-purego doc-names loc alloc-gate bench-smoke hetero-ratio rss-ratio fuzz-smoke microbench profile-gradient check

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

# cross checks that the fallback compiles where there is no assembly, and
# that the converting wire codecs compile and vet on a big-endian target
# (s390x); TestBigEndianFallback runs them on this host.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor
	GOARCH=s390x $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/transport ./internal/tensor

# results-check re-runs every simulated experiment and requires the committed
# results_full.txt byte for byte: virtual time is deterministic, so any diff
# means a priced duration or a trajectory moved.
results-check:
	$(GO) run ./cmd/rnasim -experiment all | diff - results_full.txt

# results-check-purego does the same with the AVX2 assembly compiled out: the
# simulator's fold runs through the Scale/AddScaled kernels, so the recorded
# file must not depend on which kernel path ran.
results-check-purego:
	$(GO) run -tags purego ./cmd/rnasim -experiment all | diff - results_full.txt

# doc-names fails when DESIGN.md, README.md or EXPERIMENTS.md names an
# identifier that no longer exists in the code: a type, function, field,
# command or option of a removed feature. A removal narrative names the
# commit that removed the feature instead. Add a name here when its code
# goes; CHANGES.md, ROADMAP.md and benchmark/README.md keep the
# history and are not checked.
DOC_NAMES = StreamDemux|rnabench|MeshCaps|CapsAll|SetLinkRate|FusedAllReduce|RingAllReduceSegmented|PartialRingAllReduce|PSChunks|OptNsPerElem|PSPushPullWire|AllReduceAlgo|SkewEngine|OverlapSerial|SeedStore|PushPullLease|AverageInto
doc-names:
	@if grep -nwE '$(DOC_NAMES)' DESIGN.md README.md EXPERIMENTS.md; then \
		echo "doc-names: the lines above name identifiers the code no longer has"; exit 1; fi

# check is the CI gate: static analysis (vet's asmdecl covers the assembly
# stubs), full build, race-enabled tests (which run the Go loops: the
# assembly switches itself off under -race), both kernel paths, the arm64 and
# big-endian s390x builds, the recorded simulation results on both kernel
# paths, then doc-names over the design docs.
check: vet build race purego cross results-check results-check-purego doc-names

# loc prints the non-test Go lines of every internal package and command,
# of the benchmark and of the root package (./*.go), then three totals:
# internal/ and cmd/ (the figure simplicity changes reported through
# ROADMAP item 4), benchmark/ with them (ROADMAP item 3's gate), and all of
# it. Each row is counted the same way every time (`find internal/core -name
# '*.go' ! -name '*_test.go' | xargs cat | wc -l`).
loc:
	@{ for d in internal/* cmd/* benchmark; do \
		printf '%6d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" $$d; \
	done; \
	printf '%6d %s\n' "$$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" './*.go'; \
	} | awk '{ print; all += $$1 } $$2 ~ /^(internal|cmd)\// { ic += $$1 } $$2 != "./*.go" { ibc += $$1 } \
		END { printf "%6d total internal/ cmd/\n%6d total benchmark/ internal/ cmd/\n%6d total\n", ic, ibc, all }'

# alloc-gate runs the allocation-count tests WITHOUT the race detector: they
# skip under -race (its instrumentation allocates), so `check` alone would
# never run them. They hold the RNA data path to zero gradient-sized
# allocations per step (accumulator lease cycle, in-place partial AllReduce,
# parameter-server exchange into a persistent buffer, whole or by chunk run,
# the two end-to-end worker gates, the hierarchical run over TCP, where every
# group member exchanges its own chunks, and the owner-computes ring pair
# over 4-rank TCP, whose chunks land in the caller's vector), and the v1 frame
# codec to zero allocations per encode/decode cycle at every payload size
# from 64 B to 8 MiB.
alloc-gate:
	$(GO) test -count=1 -run 'Alloc' ./internal/core ./internal/collective ./internal/ps ./internal/transport

# bench-smoke runs two tests, about ten seconds: the ring regression guard
# (RingAllReduce, the reduce-scatter/allgather pair, at 8 ranks and 262 144
# elements on the in-memory mesh, the best of five runs within 10 % of the
# ns/op recorded on the deleted pipelined engine), a timing gate built only
# under the benchsmoke tag so that a plain `go test ./...` never runs it, and
# sharded Adam over TCP asserted bit-identical to in-memory and to the
# replicated update.
bench-smoke:
	$(GO) test -count=1 -tags benchsmoke -run 'TestRingRegressionGuard|TestShardedBSPOverTCP' ./internal/collective ./internal/core

# ratio-of-medians runs the repository's benchmark (benchmark/run.sh, real core
# workers over loopback TCP) on workloads $(1) and $(2) for three seeds at
# $(4) seconds, prints the three values of metric $(3) and their median for
# each, then median $(1) / median $(2). It fails when a run printed no value,
# when the ratio is above $(5), if given, and when it is below $(6), if given.
# A ceiling gates a cost (memory); a floor gates a gain (a speedup).
define ratio-of-medians
@for w in $(1) $(2); do for s in 1 2 3; do \
	bash benchmark/run.sh --workload $$w --seed $$s --seconds $(4) --trace 0 | tail -n 1 | \
		sed -n 's/.*"$(3)":{"value":\([0-9.e+-]*\).*/'$$w' \1/p'; \
done; done | sort -k1,1 -k2,2g | awk -v a=$(1) -v b=$(2) -v gate=$(or $(5),0) -v floor=$(or $(6),0) \
	'{ v[$$1] = v[$$1] " " $$2; if (++n[$$1] == 2) med[$$1] = $$2 } \
	END { if (n[a] != 3 || n[b] != 3) { print "$@: a run reported no $(3)"; exit 1 } \
	      printf "%s $(3)%s, median %.3f\n%s $(3)%s, median %.3f\n", a, v[a], med[a], b, v[b], med[b]; \
	      printf "%s / %s = %.2f\n", a, b, med[a] / med[b]; \
	      if (gate > 0 && med[a] / med[b] > gate) { print "$@: above the ceiling $(5)"; exit 1 } \
	      if (floor > 0 && med[a] / med[b] < floor) { print "$@: below the floor $(6)"; exit 1 } }'
endef

# hetero-ratio is the paper's headline number on the real runtime: time to the
# target loss under a uniform 0-50 ms delay per rank per step, hetero_bsp over
# hetero_rna (the paper's Fig. 6 reads 1.4-1.8x). It fails below ROADMAP's bar
# of 1.3; it reads 1.63 since a synchronization steps on every mini-batch it
# carries. About 2.5 minutes; HETERO_SECONDS shortens the runs.
HETERO_SECONDS ?= 20
hetero-ratio:
	$(call ratio-of-medians,hetero_bsp,hetero_rna,time_to_target_s,$(HETERO_SECONDS),,1.3)

# rss-ratio is what the non-blocking path costs in memory where nothing
# straggles: peak_rss_mb of dense_rna over dense_bsp (the same inputs, 1.1 MB
# gradient). Peak RSS spreads under 1 % run to run, so this one gates: it
# fails above 1.3 (2.8 while every gradient kept its own buffer, 1.45 once
# gradients of one parameter version shared one, 1.24 since the reduced
# gradient buffer becomes the next parameter version). The second gate is
# what the hierarchical scheme adds on top, hier_ps over dense_rna: it fails
# above 1.25 (1.29 while every group member kept a private copy of its span as
# the baseline of its parameter-server delta). About 90 seconds.
RSS_SECONDS ?= 8
rss-ratio:
	$(call ratio-of-medians,dense_rna,dense_bsp,peak_rss_mb,$(RSS_SECONDS),1.3)
	$(call ratio-of-medians,hier_ps,dense_rna,peak_rss_mb,$(RSS_SECONDS),1.25)

# fuzz-smoke runs every fuzz target for a short budget — enough to cover the
# seeded corpora plus a burst of mutations, quick enough for CI. The wire
# targets cover the v1 frame decoder: header truncations, forged fields,
# frames of the f32/f16/i8 dtypes and the sparse frames earlier builds
# shipped (each refused with a typed error), parameter-server push-pull
# requests and acks with packed mode<<24|chunk tags, the retired push-only
# and pull-only types 5 and 6, hello garbage and hellos whose reserved bytes
# carry the capability masks earlier builds sent. FuzzReadHello holds the
# hello parser to one rule: accepted exactly when the magic is right, the
# reserved bytes never read. FuzzRecvInto holds a frame landed off the socket
# (copy or add, with or without a tail) to the bits of the pooled decode it
# replaces; its minimization budget is short because its corpus holds
# multi-KB frames, whose minimization would eat the whole smoke budget.
# FuzzServerRequests sends the parameter server request sequences from two
# client ranks (chunk indices in and past the table, forged tags, types,
# modes, dtypes and payload lengths, version horizons that never wait): each
# request is acked with the right length, version and values or ends the
# sender's service with ps.ErrBadRequest, and two clients exchanging
# complementary chunk runs leave the model one whole-vector client leaves.
# The kernel target holds the AVX2 bodies to the bits of the Go loops over
# random lengths, misalignments and values; the controller target holds the
# trigger rule (probed tag, bounded-delay floor, drain) over random
# interleavings of Ready, Await, Probes and Forget under every policy.
# FuzzReadCheckpoint feeds the checkpoint decoder (a file read from outside
# the program) arbitrary bytes: no panic, bounded allocation, and every
# accepted decode round-trips. FuzzShardOffsets holds the shard table to its
# span invariants over random (total, n) pairs.
fuzz-smoke:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzReadMessage -fuzztime 20s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzRecvInto -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzReadHello -fuzztime 10s
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzKernelsMatchGeneric -fuzztime 10s
	$(GO) test ./internal/controller/ -run '^$$' -fuzz FuzzControllerTrigger -fuzztime 10s
	$(GO) test ./internal/ps/ -run '^$$' -fuzz FuzzServerRequests -fuzztime 10s
	$(GO) test ./internal/model/ -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 10s
	$(GO) test ./internal/collective/ -run '^$$' -fuzz FuzzShardOffsets -fuzztime 10s

# microbench runs the collective, kernel, model and engine micro-benchmarks
# interactively.
microbench:
	$(GO) test -run xxx -bench 'BenchmarkRingAllReduce|BenchmarkPartialAllReduce' -benchmem ./internal/collective/
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

# Tier-1 verification and development targets. See DESIGN.md for the
# test-mode split.

GO ?= go

.PHONY: all build vet fmt-check doc-check gob-check timer-check loc loc-check surface surface-check test test-short race leak-check recovery-check stress cover bench bench-check ab ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite (the GitHub
# workflow runs the same check).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# Documentation gate: formatting (covers the runnable Example_* files),
# vet, a package comment on every internal/ package — godoc is part of
# the contract, so an undocumented package fails CI — a test file in every
# examples/ and cmd/ program, so what a reader runs is what go test runs
# and pins, and no broken relative link or `go run ./<path>` command —
# a missing program, or a flag it does not declare — in the top-level
# documents or the verify skill (cmd/doc-link-check), and DESIGN.md
# within its line budget: DOC_MAX, like LOC_TOTAL_MAX, only falls — a PR
# that adds to DESIGN.md takes as many lines out of it.
DOC_MAX = 2879
doc-check: fmt-check vet
	@n=$$(wc -l < DESIGN.md); if [ $$n -gt $(DOC_MAX) ]; then \
	  echo "doc-check: DESIGN.md has $$n lines (max $(DOC_MAX))" >&2; exit 1; fi
	@bad=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/...); \
	if [ -n "$$bad" ]; then echo "missing package comment:" >&2; echo "$$bad" >&2; exit 1; fi
	@bad=$$($(GO) list -f '{{if not .TestGoFiles}}{{.ImportPath}}{{end}}' ./examples/... ./cmd/...); \
	if [ -n "$$bad" ]; then echo "example or command without a test:" >&2; echo "$$bad" >&2; exit 1; fi
	$(GO) run ./cmd/doc-link-check README.md ARCHITECTURE.md DESIGN.md .claude/skills/verify/SKILL.md

# One wire codec: every message, manifest, run file and gateway frame goes
# through internal/wire, so no non-test file imports encoding/gob — except
# internal/wiretest, which holds gob as the size reference the codec is
# compared against, and which nothing but tests may import.
gob-check:
	@bad=$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/wiretest/*' ! -path './.bench_build/*' \
	  -exec grep -lxE '\s*(import )?(\w+ )?"encoding/gob"' {} +); \
	if [ -n "$$bad" ]; then echo "encoding/gob outside tests and internal/wiretest:" >&2; echo "$$bad" >&2; exit 1; fi
	@bad=$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/wiretest/*' ! -path './.bench_build/*' \
	  -exec grep -lxE '\s*(import )?(\w+ )?"jungle/internal/wiretest"' {} +); \
	if [ -n "$$bad" ]; then echo "internal/wiretest imported outside tests:" >&2; echo "$$bad" >&2; exit 1; fi

# No timer picks a route, brings a model up, admits a session or paces an
# experiment: in every package under internal/ the host's clock may only be
# a watchdog — a timer that turns a hang into a structured error and decides
# nothing else. Every time.Sleep/After/AfterFunc/NewTimer/Tick there, and
# every watchdog.Start (the timer free list's entry point, which waits
# take their timers from), carries a "// watchdog:" comment on its line
# saying which hang it turns into which error; DESIGN.md § Overlay routing
# classifies the timers.
TIMER_FREE = internal
timer-check:
	@bad=$$(find $(TIMER_FREE) -name '*.go' ! -name '*_test.go' \
	  -exec grep -nE 'time\.(Sleep|After|AfterFunc|NewTimer|Tick)\b|watchdog\.Start\b' {} + | grep -v '// watchdog:'); \
	if [ -n "$$bad" ]; then echo "wall-clock timer without a // watchdog: comment:" >&2; echo "$$bad" >&2; exit 1; fi

# Size ledger: non-test Go lines (wc -l, the ROADMAP's measure) per internal/
# package, for internal/core without kernel/, and for the repository
# excluding bench/ (its own module, changed only by [benchmark] PRs).
# loc-check holds the last two to the numbers the latest PR recorded: a PR
# that grows them raises the number here, in its diff, and says why.
# The latest change raised internal/core by 6 and the total by 131: a hub
# forwards the control frames it relays as it received them (setHop,
# forward, the hub ids addPeer makes once, wire's UintLen and IntLen),
# and every watchdog takes its timer from internal/watchdog's free list
# (the package, and a Start/Stop pair at each of the eight waits).
LOC_CORE_MAX = 4892
LOC_TOTAL_MAX = 25489
LOC = find $(1) -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' $(2) -exec cat {} + | wc -l
loc:
	@for p in internal/*/; do printf '%-28s %6d\n' "$${p%/}" "$$($(call LOC,$$p))"; done
	@printf '%-28s %6d  (max $(LOC_CORE_MAX))\n' 'internal/core w/o kernel/' "$$($(call LOC,internal/core,! -path 'internal/core/kernel/*'))"
	@printf '%-28s %6d  (max $(LOC_TOTAL_MAX))\n' 'repository w/o bench/' "$$($(call LOC,.))"
loc-check:
	@core=$$($(call LOC,internal/core,! -path 'internal/core/kernel/*')); total=$$($(call LOC,.)); \
	if [ $$core -gt $(LOC_CORE_MAX) ] || [ $$total -gt $(LOC_TOTAL_MAX) ]; then \
	  echo "loc-check: internal/core $$core (max $(LOC_CORE_MAX)), repository $$total (max $(LOC_TOTAL_MAX))" >&2; exit 1; fi

# Surface ledger: every exported func or method under internal/ is used by
# something that is not a test — a non-test .go file anywhere in the
# repository (cmd/, examples/, bench/ and internal/ itself included) or the
# root package's bench_test.go — or it is in SURFACE_KEEP below with the
# reason it has only test callers. The census (cmd/surface-check) resolves
# uses with go/types, so a name two packages share covers neither; a method
# whose type implements an interface that has it counts as used, and
# internal/wiretest is exempt. Methods are listed as Type.Method. surface
# prints the census and the keep-list; surface-check fails on a census line
# outside the list and on a list line the census no longer has, so the
# list — its length is the maximum — only gets shorter: a PR that adds a
# test-only export adds its line here, in its diff, and says why.
define SURFACE_KEEP
internal/amuse/data Particles.KineticEnergy     diagnostic: internal/amuse/ic's tests check the Plummer sphere's virial ratio with it
internal/amuse/data Particles.PotentialEnergy   diagnostic: the other half of that virial ratio (O(N^2), not for a run)
internal/amuse/ic UniformSphere                 test substrate: the second particle distribution of the sph/tree/nbody oracle tests
internal/core/kernel PoisonReleased             use-after-release check: core's and kernel's Ownership tests overwrite every released frame with it on
internal/ipl Registry.SetFailureHook            fault observation: the registry test watches a member's death through it
internal/mpisim LocalGangs                      test substrate: a World over in-memory links for the physics packages' sharded-kernel tests
internal/vnet Network.CrashHost                 fault injection: the paper's hard fault, a machine vanishing
internal/vnet Network.SetHostUp                 fault injection: a host goes down and comes back
endef
export SURFACE_KEEP
surface:
	@echo "used by no non-test file:"; $(GO) run ./cmd/surface-check
	@echo; echo "keep-list ($$(echo "$$SURFACE_KEEP" | wc -l) names, the maximum):"; echo "$$SURFACE_KEEP"
surface-check:
	@census=$$($(GO) run ./cmd/surface-check) || exit 1; keep=$$(echo "$$SURFACE_KEEP" | awk '{print $$1, $$2}'); \
	extra=$$(echo "$$census" | grep -vxF "$$keep"); stale=$$(echo "$$keep" | grep -vxF "$$census"); \
	if [ -n "$$extra" ]; then echo "surface-check: exported under internal/, used by no non-test file, not in SURFACE_KEEP:" >&2; echo "$$extra" >&2; fi; \
	if [ -n "$$stale" ]; then echo "surface-check: in SURFACE_KEEP but used by a non-test file or gone — delete the line:" >&2; echo "$$stale" >&2; fi; \
	[ -z "$$extra$$stale" ]

# Fast suite: unit + protocol + reduced-scale integration (seconds).
test-short:
	$(GO) test -short ./...

# Full suite, including the full-scale experiment runs in internal/exp.
test:
	$(GO) test ./...

# Fast suite under the race detector: exercises the async coupler API
# (pipelined calls, concurrent channels, parallel Stop) for data races.
race:
	$(GO) test -race -short ./...

# Buffer-ownership gate (DESIGN.md § Buffer ownership): the tests that pin
# "Send takes the slice, the transport forgets what it delivered, ports
# close with their owner" — retention, ownership at every cloning site,
# goroutine/table leaks, the peer plane's rendezvous (a parked connection
# nobody claims is closed, never stranded) and the allocation gates — three
# times over under the race detector, where a buffer two owners share shows
# up as a race.
# The physics packages are here for their allocation gates (DESIGN.md §
# Hot loops): a step allocates its working set once, not per cell or node.
# sched, trace and deploy are here for what a closed session leaves behind
# (DESIGN.md § Observability plane): nothing that grows with the sessions
# served, and a recorder whose hot path and fold allocate nothing per key.
# core/kernel is here for the free list of state frames (DESIGN.md § Buffer
# ownership, "Bulk frames are recycled"): core's poisoned re-runs and the
# per-kind Dispatch contract, and kernel's own, hold every release point to
# its frame's last reader, and kernel's Retention tests hold the list to its
# own contract — one list for every goroutine, whose frames a collection
# frees, and a release that allocates nothing. Reuse is sph's kept
# self-gravity (DESIGN.md § Hot loops, "Work done once"), which a World's
# goroutine ranks take and keep on one shared Gas; OncePerPass is the one
# state those ranks share, where a rank that writes another's rows races it.
# watchdog is here for its free list of timers: a reused timer delivers
# no tick from before to its next waiter, and a reuse allocates nothing.
# wire is here for its column views: under -race,
# checkptr rejects an unsafe view that overruns its allocation, and the
# test checks the alignment checkptr does not check for pointer-free types.
LEAK_PKGS = ./internal/wire ./internal/fifo ./internal/watchdog ./internal/vnet ./internal/smartsockets ./internal/ipl ./internal/mpisim ./internal/core \
	./internal/core/kernel ./internal/phys/sph ./internal/phys/tree ./internal/phys/nbody ./internal/sched ./internal/trace ./internal/deploy
leak-check:
	$(GO) test -race -count=3 -run 'Retention|Ownership|Leak|Gate|Rendezvous|Abort|Reuse|OncePerPass' $(LEAK_PKGS)

# Recovery gate (DESIGN.md § Stateful replacement): a dead worker comes back
# bit-identical from the last checkpoint, or fails with a structured error
# naming the call that checkpoint does not cover — never a silently different
# number. The fault tests that hold that contract, three times over under the
# race detector, like leak-check — in core, and where users meet it: a
# checkpointed SC11 run losing each model's worker in turn (exp) and an
# ensemble member losing its worker (ensemble). Occupancy holds the nodes
# a resource has occupied to the daemon's live workers after each way a
# worker goes away.
recovery-check:
	$(GO) test -race -count=3 -run 'Replac|Restore|Rebuild|Recover|KillRank|Uncovered|Occupancy' ./internal/core
	$(GO) test -race -count=3 -run 'SurvivesWorkerDeath|FaultIsolation' ./internal/exp ./internal/ensemble

# Determinism under load: the tests that hold virtual time, route choice
# and the wire to a pure function of the inputs, twenty times over under
# the race detector (which reshuffles goroutine interleavings the way a
# loaded host does). Slow (~20 min); not part of ci.
stress:
	$(GO) test -race -count=20 -run 'TestRouteChoiceIsAPureFunction|TestRouteTieBreaks|TestConnectUnknownHostFailsFast|TestRetentionHubForgetsClosedCircuits|TestReverseBytesIgnoreHeldPorts' ./internal/smartsockets
	$(GO) test -race -count=20 -run 'TestRouteTiesBreakByName' ./internal/vnet
	$(GO) test -race -count=20 -run 'TestCoupledStepVirtualTimeRepeats' ./internal/exp
	$(GO) test -race -count=20 -run 'TestSelfBalancingGangRepeats' ./internal/core
	$(GO) test -race -count=20 -run 'TestPlaneByteIdentity' .

# Coverage gates: internal/trace is the one package every layer records
# into, and internal/ensemble is the sweep engine whose accounting the
# campaign reports are trusted on — each holds a >= 90% statement-
# coverage floor.
COVER_FLOOR = 90.0
COVER_PKGS = ./internal/trace ./internal/ensemble
cover:
	@for pkg in $(COVER_PKGS); do \
	  $(GO) test -cover -coverprofile=cover.out $$pkg > /dev/null || { rm -f cover.out; exit 1; }; \
	  pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	  rm -f cover.out; \
	  echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
	  awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || \
	    { echo "$$pkg coverage $$pct% below the $(COVER_FLOOR)% floor" >&2; exit 1; }; \
	done

# The paper's evaluation tables/figures plus substrate micro-benchmarks.
# The run is recorded as a machine-readable perf trajectory in $(BENCH_OUT)
# (benchmark name -> metric -> value, including the virtual-time metrics
# and the session/ensemble makespans); the raw output still prints via
# benchjson's tee. A PR that re-baselines names its own file:
# make bench BENCH_OUT=BENCH_<pr>.json.
#
# -cpu 1 pins GOMAXPROCS: go test appends "-N" to every benchmark name on
# an N-core host, and every committed BENCH_*.json was recorded on one P,
# so without the pin bench-check finds no common names on a larger host
# and passes without comparing anything.
#
# The scenario benchmarks live in the root package; a layer's own benchmarks
# live with the layer (BENCH_PKGS).
#
# ALLOCS_MATCH names the benchmarks whose allocs/op bench-check gates. They
# run in a go test of their own at a pinned -benchtime, so the count they
# report is one b.N's on every host (a count averaged over a b.N the host
# picks moves with it); the others keep the default benchtime, and the same
# regex goes to -skip there. benchjson reads both outputs. E1LabConditions
# and E2SC11 are whole scenarios, each a testbed build and a coupled step:
# their counts move by about 0.5 % from run to run with the hubs' gossip
# (ROADMAP item 24), inside the gate, and they gate what a connection's
# set-up costs every transfer.
#
# Then it prints every virtual-* entry that moved from the previous newest
# BENCH_*.json to the new file (benchjson -diff), old -> new in percent.
BENCH_OUT ?= BENCH_68.json
BENCH_PKGS = . ./internal/vnet ./internal/smartsockets ./internal/ipl ./internal/core ./internal/core/kernel ./internal/mpisim ./internal/phys/sph ./internal/phys/tree ./internal/phys/nbody ./internal/trace
ALLOCS_MATCH = HermiteStep|TreeField|SPHStep|DensityPass|ForcesPass|WorldEvolve|MPIAllreduce|IbisChannelRoundTrip|PipelinedKick|BulkRound|LabTestbedBuild|StateCodec|UploadCodec|ConnSendRecv|VirtualConnRoundTrip|ConnectCascade|PortRoundTrip|Marshal|WorkerStartStop|E1LabConditions|E2SC11
BENCH_RUN = { $(GO) test -run XXX -bench . -skip '$(ALLOCS_MATCH)' -benchmem -cpu 1 $(BENCH_PKGS) && \
	$(GO) test -run XXX -bench '$(ALLOCS_MATCH)' -benchtime 8x -benchmem -cpu 1 $(BENCH_PKGS); }
bench:
	@prev=$$(ls BENCH_*.json 2>/dev/null | grep -vxF '$(BENCH_OUT)' | sort -t_ -k2 -n | tail -1); \
	$(BENCH_RUN) > bench.out || { cat bench.out; rm -f bench.out; exit 1; }; \
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out || { rm -f bench.out; exit 1; }; \
	rm -f bench.out; \
	if [ -n "$$prev" ]; then $(GO) run ./cmd/benchjson -diff $$prev $(BENCH_OUT); fi

# Perf regression gate: rerun the benchmarks and compare the virtual-*
# metrics against the newest committed BENCH_*.json. Virtual time is a
# function of the inputs, so every entry is gated exactly and both ways:
# any change fails as "moved", a fall too, since a bug that drops work from
# the model lowers virtual time (a PR that means to lower it re-baselines).
# The exceptions are the ones -loose-match names, which keep 15% either
# way: there several sessions or ensemble members run concurrently, and the
# order in which the scheduler admits them — goroutine interleaving — is
# part of their virtual makespan. allocs/op is gated at +2% plus one
# allocation on the single-process benchmarks whose count repeats exactly;
# a drop passes. Wall-clock ns/op is not gated (host-dependent).
bench-check:
	@base=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$base" ]; then echo "bench-check: no BENCH_*.json baseline" >&2; exit 1; fi; \
	echo "bench-check: baseline $$base"; \
	$(BENCH_RUN) > bench.out || { cat bench.out; rm -f bench.out; exit 1; }; \
	$(GO) run ./cmd/benchjson -o bench-check.json -against $$base \
	  -loose-match 'ConcurrentSessions|Ensemble' \
	  -allocs-match '$(ALLOCS_MATCH)' \
	  < bench.out; st=$$?; \
	rm -f bench.out bench-check.json; exit $$st

# A/B run of the repository benchmark: the working tree against BASE (a git
# archive export in a temporary directory), PAIRS pairs of `bash bench/run.sh
# --seconds 20 --trace 0` on seeds SEED, SEED+1, …, alternating which side
# goes first. WORKLOAD is one workload, a comma list, or all (every workload
# in BENCHMARK.json, against the one export). cmd/ab prints every run's
# end-to-end metrics, then per workload and metric both sides' median
# [q1–q3], the change's wins and the verdict against BENCHMARK.json's bound
# ("identical" for a virtual-time metric equal in every pair), and fails on
# a regression in any workload or a failed run. It times a reference loop
# before and after every run, flags a pair in which the host changed
# speed, and prints each table again over the unflagged pairs.
BASE ?= HEAD
WORKLOAD ?= coupled_step
PAIRS ?= 10
SEED ?= 1
ab:
	$(GO) run ./cmd/ab -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# Tier-1 gate: everything a PR must keep green, in one command.
ci: build vet doc-check gob-check timer-check loc-check surface-check test-short race leak-check recovery-check cover

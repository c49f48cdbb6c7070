// Package jungle is a Go reproduction of "High-Performance Distributed
// Multi-Model / Multi-Kernel Simulations: A Case-Study in Jungle Computing"
// (Drost et al., IPDPS workshops 2012, arXiv:1203.0321).
//
// The repository rebuilds the paper's full software stack from scratch:
// the Ibis middleware (SmartSockets connectivity, the IPL communication
// layer, JavaGAT resource access, IbisDeploy), a distributed version of the
// AMUSE astrophysical coupling framework (the paper's contribution) and the
// physics kernels its evaluation uses (PhiGRAPE, Gadget, SSE, Octgrav/Fi
// equivalents under internal/phys). Physical testbeds (DAS-4 clusters,
// GPU machines, transatlantic lightpaths, firewalls) are substituted by a
// virtual network and device model (internal/vnet, internal/vtime): the
// physics runs for real and bit-identically across kernels and placements,
// while time and traffic are accounted virtually.
//
// The coupler API is asynchronous and context-aware, reproducing AMUSE's
// asynchronous function-call pattern: every RPC is a core.Call future
// (Model.Go / GoKick / GoPull / ...), core.Gather fans pipelined calls
// back in, and context.Context flows from the Simulation session down
// through every channel into the daemon so deadlines and cancellation
// abort in-flight wide-area waits. The bridge integrator issues each
// phase's calls to all models before waiting on any — the paper's "many
// slow links at once" execution shape.
//
// Bulk state moves on a direct worker-to-worker data plane: the coupler
// orchestrates a transfer by RPC (Simulation.TransferState), but the
// column bytes stream between workers over SmartSockets virtual
// connections through the hub overlay, never crossing the user's machine
// — with a transparent fallback to the coupler hairpin when no peer path
// exists. The bridge stages each
// p-kick's field inputs on the coupling worker the same way.
//
// A kernel can span multiple workers: WorkerSpec.Workers = K deploys it
// as a gang of K rank workers running one domain-decomposed instance
// behind a single model handle (the paper's models are internally
// MPI-parallel; here the intra-model parallelism crosses worker
// processes). Ranks are co-located on one site, split each force
// evaluation by spatial slab, and exchange halo columns and energy
// reductions over their own peer links on the overlay — the coupler API
// and the bridge are unchanged, and a K-rank gang reproduces the solo
// worker's results bit for bit.
//
// Failures are a recovery path, not an endpoint: every standard service
// can snapshot and restore its complete model state
// (kernel.Checkpointable), Simulation.Checkpoint drains each worker's
// pipeline and streams the snapshots to a daemon-side store over the
// peer plane, and the resulting manifest is self-contained — a killed
// worker (solo or gang rank) is transparently replaced with its state
// restored, and a killed run resumes bit-compatibly from its last
// checkpoint (ResumeSimulation, amuse-run -resume).
//
// See README.md for the front door and quickstart, ARCHITECTURE.md for
// the top-down system map (the onboarding document) and DESIGN.md for
// the system inventory, the kernel-registry, batched state-transfer,
// async-coupler, direct-data-plane, sharded-kernel and
// checkpoint-recovery architecture, plus measured-vs-paper notes; the
// examples directory holds runnable entry points.
// bench_test.go in this directory regenerates every table and figure of
// the paper's evaluation (run: go test -bench=. -benchmem).
package jungle

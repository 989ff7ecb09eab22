// Command flperf is the repository's benchmark: six workloads, each run in
// its own process, measured end to end and, in a separate traced run,
// layer by layer. BENCHMARK.json at the repository root names the
// workloads and metrics and fixes each end-to-end metric's regression
// bound; every performance claim names a workload and a metric from it.
//
// # Running
//
// From the root of a checkout:
//
//	bash cmd/flperf/run.sh --workload solve_mid --seed 7 --seconds 15 --trace 0
//
// run.sh builds flperf into .bench_build (build cache included) and runs
// it. flperf is a module of its own, so that the benchmark is a package
// with its own build file: `go -C cmd/flperf run . -workload solve_mid
// -seed 7` works too, and `go -C cmd/flperf test .` runs every workload at
// test size. The repository root's `go test ./...` does not enter it.
// Flags:
//
//	-workload NAME  one of the workloads below
//	-seed N         the inputs are a function of N alone
//	-seconds S      measure timed units for about S seconds (a workload's
//	                minimum unit count can overrun it)
//	-trace 0|1      0: the end-to-end metrics; 1: the traced run and the
//	                per-layer metrics
//	-spans FILE     traced run: write every span as a JSON line
//	-json FILE      append the full result record as a JSON line
//	-agree A B      compare two files of -json records (see below)
//
// A run prints its context (nproc, GOMAXPROCS, Go version, seed, set-up
// builds, unit counts), then every metric by name with its unit, the
// timings also in wall-clock seconds (wall.*), and as its last line one
// JSON object with the keys correct, attempted, failed and metrics. It
// exits non-zero only on a harness error; a unit whose output fails its
// check is counted in failed instead.
//
// # Runs and units
//
// A run builds the workload's inputs from the seed at least five times
// (more while the builds take under 1 s in all) and reports the median
// build time as setup_s. One untimed warm-up unit follows. Then it runs
// timed units until the measuring time is up: runtime.GC before each unit,
// the unit alone inside the timed window, its check after. Units rotate
// through a fixed cycle of slots, each slot a (instance, protocol seed)
// pair, so every slot's output is checked against its first run.
//
// Between the builds, and between the units, right after the collection,
// the run times a yardstick for a tenth of the time measured (see
// Calibrated seconds below).
//
// The load is one closed loop in one process: a unit starts when the
// previous one, and its check, are done. GOMAXPROCS is left at its
// default, the CPU count.
//
// # Workloads
//
//	solve_mid      core.Solve, default sequential runner, on the T11
//	               instance: uniform m=800, nc=6400, density 0.2, K=16;
//	               4 protocol seeds. Protocol-bound: most of the wall time
//	               is in the 71 rounds.
//	solve_large    core.Solve on uniform m=100, nc=125000, density 0.03,
//	               K=4 (about 0.375 M edges); 2 protocol seeds. The
//	               out-of-cache T16 regime, where graph build and node
//	               init are a large share, so set-up layers show. Half of
//	               T16's 250000 clients, so that a run holds about 16
//	               units instead of 8.
//	solve_chaos    core.Solve on 100 uniform instances m=40, nc=200,
//	               density 0.3, K=16, with WithFaults{DropProb 0.2, DupProb
//	               0.1, facilities 0 and 1 crash at rounds 5 and 9} and
//	               WithReliableDelivery(2); protocol seeds 0..99. The fault
//	               pipeline, the retransmit shim and the repair tail do the
//	               work; about 1500 units per run, so p90_s is meaningful.
//	               A hundred instances, not one, because the work a small
//	               instance takes varies with it more than any bound.
//	engine_dense   congest.Run, sharded runner (Parallel, Shards 2), all
//	               nodes broadcasting on a degree-8 circulant, n=4096, 100
//	               rounds per unit. The multicore merge and barrier with a
//	               cache-resident working set and no protocol logic.
//	engine_sparse  congest.Run, sequential frontier scheduler, every
//	               1000th node broadcasting and the rest asleep until the
//	               halt round, n=10^6, 500 rounds per unit. The frontier
//	               scheduler does the work and the merge barely runs: out
//	               of cache, the opposite of engine_dense. 500 rounds rather
//	               than 1500, so that a run holds about 13 units.
//	fleet_udp      A loopback gateway and 2 udp.Dial shards in this
//	               process: core.SolveShard over each shard's socket, then
//	               SendResult, gw.Run, DecodeFragment and Assemble, on 4
//	               uniform instances m=200, nc=4000, density 0.05, K=16,
//	               fault-free. The only workload on RunShard and the UDP
//	               endpoint.
//
// # Checks
//
// Every check runs outside the timed window and counts a failing unit in
// failed.
//
//   - Solve units: core.Certify again, and the solution (open set and
//     assignment), cost, rounds and messages must equal the slot's first
//     run.
//   - Fleet units: the assembled solution must equal the in-process
//     core.Solve of the same instance and seed in cost, open set,
//     assignment, rounds and messages. The reference is computed the first
//     time each slot is checked.
//   - Engine units: the Stats must equal the closed form of the protocol:
//     rounds R+1, messages hot*8*R, senders hot*R, live node-rounds
//     n*(R+1), with hot the number of broadcasting nodes.
//
// # End-to-end metrics
//
// All from the untraced run; lower is better unless noted. The timings
// are in calibrated seconds (below).
//
//	setup_s          s         median of the input builds: instance
//	                           generation (solve, fleet), or graph plus
//	                           node slice (engine)
//	p50_s            s         median time of one unit: one Solve, one
//	                           Run, or one deployment through Assemble
//	rounds_per_s     rounds/s  median over units of rounds / unit time
//	                           (higher is better)
//	peak_rss_mib     MiB       VmHWM from /proc/self/status at exit
//	allocs_per_unit  count     runtime.MemStats.Mallocs across the timed
//	                           units / units
//
// The -json record also holds, under "exact", the deterministic per-unit
// means over the slot cycle (rounds, messages, cost) and fail_frac, which
// two runs on one seed must match exactly; under "p90_s", the unit time's
// 90th percentile on runs with at least 100 units; and under "wall", the
// timings in wall-clock seconds with the yardstick's median during set-up
// and during the units. They are not in BENCHMARK.json's end_to_end list:
// its bounds are checked across runs on different seeds, where the exact
// values legitimately differ, fail_frac is 0 on a correct run, and p90_s
// exists only on workloads with enough units (solve_chaos, engine_dense,
// fleet_udp).
//
// # Calibrated seconds
//
// The machine the bounds were measured on gives the benchmark 2 vCPUs of
// a shared host whose speed swings by up to a factor of two within a
// minute; a fixed sort loop timed in half-second windows read anywhere
// from 1.25 to 1.88 ms, and the guest saw almost no steal time. Wall-clock
// unit times spread 10-40% between runs there, wider than any useful
// bound. So a run also times a yardstick (calibrate.go): two goroutines at
// once, each filling its own 64 KiB slice from a fixed xorshift sequence
// and sorting it, the same work on every call. It runs between the builds
// and between the units for a tenth of the time measured, each time right
// after runtime.GC so that no collection overlaps it. A timing in
// calibrated seconds is the wall time times 1.6 ms over the yardstick's
// median in the same phase of the run (set-up or units), 1.6 ms being the
// yardstick's time on that machine in its faster phases. A unit that
// slows down with the host moves no calibrated metric; a unit that slows
// down against the yardstick does. The yardstick is benchmark code on the
// standard library, so no change to the repository moves it. The
// wall-clock values stay in the output as wall.* and in the -json record.
//
// The yardstick uses two CPUs because the workloads do: the sharded
// runner and the fleet's shards run in parallel, and the garbage collector
// takes the second CPU on the others. In ten runs of solve_chaos, its unit
// time over the two-goroutine yardstick's time ranged over 2.5%, against
// 10% over the same sort on one goroutine; on engine_dense, 11% against
// 49%, the 49% from one run whose second CPU was slow. A walk over an
// 8 MiB region, one byte per cache line, was tried as a second yardstick
// for the out-of-cache workloads (solve_mid, solve_large, engine_sparse)
// and did no better on them than the two sorts; a dependent-load chase
// over a 64 or 256 MiB table was rejected sooner, its time splitting into
// two modes, 1.7 and 6 ms, by how the process's memory was mapped rather
// than by the host.
//
// # Traced run
//
// With -trace 1 the run alternates traced and untraced cycles of units,
// so both cover the same slots. A traced
// unit records spans (name, start, end, parent, unit) around its calls
// into the library's public functions and derives the per-layer values
// from them; nothing inside internal/ is timed. Spans are kept in memory
// and written at exit when -spans is given. trace.overhead_frac is the
// median time of the traced units' Solve, Run or deployment over the
// untraced units' median, minus 1. It leaves out the separate Derive,
// graph build and Certify calls a traced unit makes, so it counts only
// what the observer and the stamps cost.
//
// Every per-layer metric is reported on every workload; a layer a
// workload never enters reads 0. The absolute times are the round phases
// every unit has; the layers only some workloads reach are shares of the
// unit's wall time (_frac) or counts:
//
//	congest.graph_build_s  the communication graph build: congest.Bipartite
//	                       over the instance, timed as a separate call
//	                       (solve, fleet), or NewGraph/AddEdge/Finalize in
//	                       set-up (engine). Moves p50_s on solve_large,
//	                       setup_s on engine_*.
//	congest.init_s         unit start to the end of round 0, less the
//	                       separately timed Derive and graph build: node
//	                       construction, env layout, Init and round 0
//	                       (engine: env layout, Init and round 0). Moves
//	                       p50_s on solve_large and engine_sparse.
//	congest.sweep_s        rounds 1..ProtoRounds-1, the phase sweep
//	                       (engine: rounds 1..R-1). Moves p50_s and
//	                       rounds_per_s on solve_mid and engine_*.
//	congest.tail_s         rounds ProtoRounds..end, cleanup and repair
//	                       (engine: the halt round). Moves p50_s on
//	                       solve_chaos and solve_large.
//	congest.round_ms_p50,  median and slowest round. Round ends come from
//	congest.round_ms_max   core.WithObserver (solve), node 0's Round calls
//	                       (engine) or shard 0's Begin calls (fleet).
//	                       Move rounds_per_s everywhere.
//	congest.messages_per_round, congest.live_per_round,
//	congest.senders_per_round   from Stats / Report.Net. Move
//	                       rounds_per_s and allocs_per_unit.
//	congest.dropped, congest.duplicated, congest.retransmits,
//	congest.acks           fault and shim traffic per unit (solve_chaos).
//	congest.goodput_frac   messages / (messages + retransmits + acks), the
//	                       useful share of the wire (solve_chaos).
//	core.derive_frac       a separate core.Derive call. Moves p50_s on
//	                       solve_*; expected negligible.
//	core.finish_frac       last round's end to Solve's return: masking,
//	                       cost, certify. Moves p50_s on solve_large.
//	core.certify_frac      a separate core.Certify call (part of finish).
//	core.repaired_clients  clients the repair tail reassigned (solve_chaos).
//	core.decode_fragment_frac, core.assemble_frac
//	                       the coordinator's decode and Assemble. Move
//	                       p50_s on fleet_udp.
//	udp.dial_frac, udp.begin_wait_frac, udp.send_frac,
//	udp.gather_wait_frac, udp.result_frac
//	                       per-shard means of a benchmark-side Transport
//	                       wrapper's timings around *udp.Shard: Dial, the
//	                       barrier wait in Begin, Send, the wait in Gather,
//	                       SendResult. begin_wait is time waited for the
//	                       slowest shard.
//	udp.begin_wait_max_frac  the largest shard's barrier wait; its gap to
//	                       the mean names the straggler.
//	udp.compute_frac       SolveShard less its transport calls.
//	udp.gateway_run_frac   gw.Run, from fleet assembly to the last
//	                       fragment. All udp.* move p50_s and rounds_per_s
//	                       on fleet_udp.
//	udp.remote_msgs_per_round, udp.fenced, udp.rejected
//	                       traffic handed to Send per round, and frames the
//	                       gateway and shards fenced or rejected.
//	trace.unattributed_frac  the share of a unit no layer covers: for
//	                       solve, how far the separate Derive and graph
//	                       build overrun the stretch before round 0 (the
//	                       estimate's error); for fleet, the deployment
//	                       outside gw.Run, decode and Assemble; 0 on engine,
//	                       whose phases partition the Run.
//	trace.overhead_frac, trace.units
//
// # Comparing runs
//
// Append the records of repeated runs to a file with -json, one file per
// commit or per set of runs, then
//
//	flperf -agree A.json B.json
//
// prints, for every (workload, metric) pair, the median and quartiles of
// each side and a verdict: agree (the medians differ by at most the
// metric's bound), exceeds (they differ by more, and each side's own
// quartile spread is within the bound) or unresolved (a side's spread is
// wider than the bound). Exact metrics must read the same on every run of
// a seed both sides ran.
//
// # Measured spread
//
// Measured on a shared virtual machine with 2 CPUs (Intel Xeon, 2.0 GHz),
// Go 1.24, 15-second runs started through run.sh from a copy of the
// repository, the way BENCHMARK.json's command runs them. Set E ran every
// workload ten times, on seeds 1201-1210, one round of the six workloads
// per seed; set F then did the same on seeds 1211-1220, so a workload's
// two sets lie about 18 minutes apart. Spread is the distance between the
// first and third quartiles of a set's ten values as a share of their
// median, as Python's statistics.quantiles(values, n=4) gives them; drift
// is set F's median against set E's. The last two columns are the spread
// of p50_s in wall-clock seconds, before calibration.
//
//	workload       metric           set E   set F   drift   wall E  wall F
//	solve_mid      p50_s              3.0%    4.0%   +1.1%    5.3%   10.8%
//	solve_mid      rounds_per_s       3.0%    4.0%   -1.1%
//	solve_mid      peak_rss_mib       2.2%    0.7%   -0.5%
//	solve_mid      allocs_per_unit    0.2%    0.1%   -0.0%
//	solve_mid      setup_s           13.2%    8.5%   +1.9%
//	solve_large    p50_s              3.7%    3.3%   -1.1%    5.6%    9.6%
//	solve_large    rounds_per_s       3.7%    3.3%   +1.1%
//	solve_large    peak_rss_mib       0.4%    0.8%   +0.5%
//	solve_large    allocs_per_unit    0.1%    0.2%   -0.1%
//	solve_large    setup_s           16.8%   15.1%   +7.1%
//	solve_chaos    p50_s              4.0%    2.6%   +0.4%   14.0%    8.1%
//	solve_chaos    rounds_per_s       4.1%    2.6%   -0.4%
//	solve_chaos    peak_rss_mib       0.5%    2.5%   +0.5%
//	solve_chaos    allocs_per_unit    2.3%    1.3%   +0.0%
//	solve_chaos    setup_s           12.2%    9.5%   -0.3%
//	engine_dense   p50_s             13.8%    4.2%   +8.3%   24.8%    7.5%
//	engine_dense   rounds_per_s      13.8%    4.2%   -7.7%
//	engine_dense   peak_rss_mib       1.5%    2.3%   +1.4%
//	engine_dense   allocs_per_unit    0.0%    0.0%   +0.0%
//	engine_dense   setup_s            4.4%    4.0%   -0.4%
//	engine_sparse  p50_s              5.8%    7.0%   +1.4%   15.4%   11.9%
//	engine_sparse  rounds_per_s       5.9%    6.8%   -1.4%
//	engine_sparse  peak_rss_mib       0.2%    0.4%   +0.1%
//	engine_sparse  allocs_per_unit    0.0%    0.0%   -0.0%
//	engine_sparse  setup_s            9.6%    9.9%   +4.1%
//	fleet_udp      p50_s              4.6%    1.5%   +0.3%   11.9%    7.4%
//	fleet_udp      rounds_per_s       4.5%    1.5%   -0.3%
//	fleet_udp      peak_rss_mib       4.8%    3.3%   -0.3%
//	fleet_udp      allocs_per_unit    0.2%    0.2%   +0.1%
//	fleet_udp      setup_s           10.6%   10.3%   +1.5%
//
// flperf -agree on the two sets reported every (workload, metric) pair as
// agree at BENCHMARK.json's bounds. Two runs of each workload on one
// further seed read the same rounds, messages, cost and fail_frac.
//
// The bounds follow from the table. allocs_per_unit carries 0.05 and
// peak_rss_mib 0.10; both spread under 5%. p50_s and rounds_per_s carry
// 0.25, the largest bound BENCHMARK.json allows, and setup_s 0.25 as well,
// because it must carry the largest bound. The targets this benchmark was
// specified with, 0.10 for p50_s and rounds_per_s and 0.15 for setup_s,
// are not met. engine_dense is the reason for p50_s and rounds_per_s: it
// follows the host about 1.8 times as steeply as the yardstick does (the
// slope of log unit time on log yardstick time, over 15 runs), so in a
// slow set its calibrated spread reached 14% and its median drifted 8%.
// Of the other yardsticks tried, the two sorts in lock-step or handing
// chunks from one goroutine to the other followed it no more closely, and
// two 1 MiB sorts somewhat more closely but solve_chaos and fleet_udp less
// so. setup_s spread up to 17%, on solve_large.
//
// Longer runs do not fit. The benchmark is evaluated in 4 + 22 runs per
// workload, 136 in all, within 3420 seconds, two builds included. At 15
// seconds of measuring a run took 15.5 to 21.8 seconds on that machine,
// 18.1 on average, about 2460 seconds for the 136; the first run in a new
// copy also builds, and took 35 seconds. Runs of 20 seconds took 22.0 on
// average, about 3000 seconds for the 136, too close to the limit on a
// host this uneven.
//
// GOMAXPROCS stays at its default on every workload. On solve_chaos, a
// limit of 1 made units 8% faster in 10 of 10 paired runs, with a
// similar spread (7.3% against 8.1%). A second P hosts the GC workers
// there, so the default's cost is one users pay.
//
// Unmeasured: multicore behaviour beyond 2 CPUs; a real network (the
// fleet runs on loopback); the UDP endpoint's own retransmissions, which
// it does not expose.
package main

#!/bin/sh
# Runs the full benchmark harness sequentially (single-core machine: do not
# run anything else concurrently or the timings are polluted).
#
# Each benchmark runs with profiling enabled and archives its hierarchical
# profiler report (timers / counters / vmpi traffic) as JSON into
# bench_results/PROFILE_<name>.json for cross-PR diffing. Note the
# measurement overhead is small but nonzero; for last-decimal kernel numbers
# rerun the binary of interest without DGFLOW_PROFILE=1.
set -e
cd "$(dirname "$0")"
mkdir -p bench_results

# Verify pass: before any timing is trusted, the rank-failure recovery tests
# (ctest label distributed_resilience: agreement protocol, fault injection,
# shard checkpoints, the end-to-end shrinking recovery) must pass under
# ThreadSanitizer — a hang or race here invalidates every distributed
# number below. Set DGFLOW_SKIP_VERIFY=1 to skip while iterating on a
# single benchmark.
if [ -z "$DGFLOW_SKIP_VERIFY" ]; then
  # The same pass covers the shared-memory worker pool (ctest label
  # threading): the thread-parallel cell loops, the fused per-thread hooks
  # and the chunked reductions must be race-free before any threaded
  # speedup below is trusted.
  # The io_resilience label rides in the same pass: the asynchronous
  # checkpoint writer hands encoded images to a background service thread
  # while the solver keeps mutating its state, and the back-pressure /
  # drain handshake is exactly the kind of protocol TSan breaks open.
  # The distributed suites ride along (label distributed): the
  # distributed instantiation of the multigrid's one DG-level recursion
  # runs on the vmpi rank threads beside the worker pool, so a race
  # between them must fail here. So do the multigrid suites (label
  # multigrid): the p-, c- and h-transfers run their cell and row ranges
  # on the pool's workers. So do the fused-loop and ABFT suites (labels
  # mixed_precision and abft): solve_cg's one sweep per iteration writes
  # x and r and the per-chunk partial sums from the pool's workers, at
  # widths 1 and 4 and on 4 ranks, and the guarded solves run the same
  # sweep.
  echo "verify pass: distributed_resilience|io_resilience|threading|distributed|multigrid|mixed_precision|abft under DGFLOW_SANITIZE=thread"
  cmake -B build-tsan -S . -DDGFLOW_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j \
    --target test_distributed_resilience test_ckpt_io test_threading \
    recovery_microbench threads_microbench test_distributed_solve \
    test_vmpi_distributed distributed_microbench test_multigrid \
    test_transfer test_mixed_precision test_abft abft_microbench > /dev/null
  (cd build-tsan && ctest -L "distributed_resilience|io_resilience|threading|distributed|multigrid|mixed_precision|abft" --output-on-failure)

  # Second verify pass: the fused-kernel equivalence, mixed-precision and
  # ABFT tests under AddressSanitizer — the fused hooks write through raw
  # pointers into solver vectors mid-traversal, and the ABFT guard flips
  # bits in live payloads and checksums raw memory regions; an out-of-range
  # hook range or stale artifact region must fail here, not corrupt a
  # timing run below. The Chebyshev suite (label solvers) rides along: its
  # plain test operators get the smoother's hooks over the whole range
  # (vmult_hooked), so a range that overruns a vector must fail here too.
  # The perf smoke label rides along: it drives the batch and generic
  # kernel sweeps through a full vmult harness, so a scratch-buffer overrun
  # in a sweep fails here first. So does the loop driver's suite (label
  # threading): every operator write, at any pool width, goes through the
  # chunk view's masked scatter, and an out-of-range write there must fail
  # here too. The common suites ride
  # along: the XXH64 checksum reads a payload's tail in 8-, 4- and 1-byte
  # steps, and its reference vectors sit in buffers of exactly their
  # length, so an over-read fails here. So do the operator suites (label
  # operators): the diagonal probe writes unit vectors into evaluator
  # buffers and copies the scalar Helmholtz diagonal into three component
  # blocks per cell, so an index slip there must fail here; the flow
  # solver's suite carries the same label, as the only one that reaches
  # the nonzero velocity data, the velocity Neumann data and the
  # rotational pressure term of the right-hand sides. So do the
  # multigrid suites (label multigrid): the transfers index raw cell and
  # row ranges into the level vectors, so a range that overruns a level
  # must fail here.
  echo "verify pass: mixed_precision|abft|perf|threading|common|operators|multigrid|solvers under DGFLOW_SANITIZE=address"
  cmake -B build-asan -S . -DDGFLOW_SANITIZE=address > /dev/null
  cmake --build build-asan -j \
    --target test_mixed_precision test_abft abft_microbench \
    kernels_microbench ablation_precision threads_microbench \
    test_threading test_checksum test_aligned_vector test_laplace \
    test_incns_operators test_incns_solver test_multigrid test_transfer \
    test_chebyshev > /dev/null
  (cd build-asan && ctest -L "mixed_precision|abft|perf|threading|common|operators|multigrid|solvers" --output-on-failure)

  # Third verify pass: the resilience and ABFT suites under UBSan — the
  # bit-flip injection and checksum paths reinterpret raw bytes and shift
  # 64-bit masks, and the recovery ladder rethrows through several catch
  # layers; any misaligned access, bad shift or invalid enum must surface
  # here with -fno-sanitize-recover rather than silently skew a repair.
  # The common suites ride along: copying an empty AlignedVector must not
  # hand memcpy a null pointer, a size whose byte count overflows must
  # throw, and the checksum's rotates and word reads must stay defined.
  # So does the checkpoint I/O suite (label io_resilience): the writer
  # patches header bytes in place and the readers do size arithmetic on
  # counts taken from the file. So do the operator suites (label
  # operators): the one operator driver indexes the face batches'
  # boundary ids, and the flow data binders call the boundary functions
  # through member pointers and closures over the evaluators. So do the
  # multigrid and solver suites (labels multigrid and solvers): the DG
  # levels' smoothers index their inverse cell blocks from hook ranges,
  # and the blocks are inverted lane-batched, cell groups padded to the
  # SIMD width.
  echo "verify pass: resilience|abft|common|io_resilience|operators|multigrid|solvers under DGFLOW_SANITIZE=undefined"
  cmake -B build-ubsan -S . -DDGFLOW_SANITIZE=undefined > /dev/null
  cmake --build build-ubsan -j \
    --target test_resilience_vmpi test_resilience_solver test_checkpoint \
    test_abft abft_microbench test_aligned_vector test_checksum \
    test_ckpt_io test_laplace test_incns_operators test_incns_solver \
    test_multigrid test_transfer test_chebyshev > /dev/null
  (cd build-ubsan && ctest -L "^(resilience|abft|common|io_resilience|operators|multigrid|solvers)$" --output-on-failure)

  # Benchmark smoke: the repository benchmark (dgbench/, the harness behind
  # BENCHMARK.json) runs every workload for a few steps, untraced and
  # traced, with its output checks on — the lung state must be bitwise
  # equal at pool widths 1 and 4, and the window-end observables must match
  # dgbench/baseline/reference.jsonl — and every metric must be emitted.
  echo "verify pass: repository benchmark smoke (ctest label bench)"
  cmake -S dgbench -B .bench_build/dgbench -DCMAKE_BUILD_TYPE=Release \
    > /dev/null
  cmake --build .bench_build/dgbench -j > /dev/null
  ctest --test-dir .bench_build/dgbench -L bench --output-on-failure
fi
for b in build/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    name=$(basename "$b")
    # benchmarks that support it also archive machine-readable results;
    # one mapping from binary name to archive name:
    #   kernels     - roofline fast-path comparison (acceptance criteria)
    #   distributed - ghost-exchange traffic validation on 1/2/4/8 ranks
    #   recovery    - agreement latency, shard checkpoints, shrink recovery
    #   abft        - SDC-guard overhead (< 3%) and the flip-repair check
    #   precision   - mixed-precision iteration-count matrix
    #   threads     - 1/2/4-thread scaling + the bitwise determinism gate
    case "$name" in
      kernels_microbench)     bench_json="bench_results/BENCH_kernels.json" ;;
      distributed_microbench) bench_json="bench_results/BENCH_distributed.json" ;;
      recovery_microbench)    bench_json="bench_results/BENCH_recovery.json" ;;
      abft_microbench)        bench_json="bench_results/BENCH_abft.json" ;;
      ablation_precision)     bench_json="bench_results/BENCH_precision.json" ;;
      threads_microbench)     bench_json="bench_results/BENCH_threads.json" ;;
      *)                      bench_json="bench_results/BENCH_${name}.json" ;;
    esac
    DGFLOW_PROFILE=1 \
      DGFLOW_PROFILE_JSON="bench_results/PROFILE_${name}.json" \
      DGFLOW_BENCH_JSON="$bench_json" \
      "$b"
  fi
done
echo "profiler reports archived in bench_results/ (PROFILE_*.json, BENCH_*.json)"

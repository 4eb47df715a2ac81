#!/bin/sh
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   sh dgbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build goes to ${CARGO_TARGET_DIR:-.bench_build}/dgbench (relative to
# the checkout root) and logs to stderr, so the last line of stdout is the
# result JSON. Exits non-zero without a result when the build fails.
set -e
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}/dgbench"
cmake -S dgbench -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target dgflow_bench -j 4 >&2
exec "$build/dgflow_bench" --workdir "$build/work" \
  --reference dgbench/baseline/reference.jsonl "$@"

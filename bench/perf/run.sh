#!/bin/sh
# Build the benchmark from source in this checkout, then run it with the
# given arguments, e.g.
#   sh bench/perf/run.sh --workload ht_read --seed 1 --seconds 15 --trace 0
# Run it from the root of the checkout. Build output goes to stderr, so
# the last line of stdout is the result JSON. The shared dune cache is
# off and the compilers' temporary files go to perf-out/tmp, so that
# nothing is written outside the checkout.
set -e
mkdir -p perf-out/tmp
TMPDIR="$(pwd)/perf-out/tmp"
export TMPDIR
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"

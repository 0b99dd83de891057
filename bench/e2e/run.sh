#!/bin/sh
# Build the benchmark and the serving daemon from source, then run the
# benchmark with the given arguments, e.g.
#
#   sh bench/e2e/run.sh --workload tree-mis --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout of the repository. Build output
# goes to stderr, so the benchmark's last stdout line stays its JSON
# result. dune's shared cache is turned off so that nothing is written
# outside the checkout.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "e2e: run this from the root of a tree_local checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

DUNE_CACHE=disabled dune build --root . ./bench/e2e/e2e.exe ./bin/tree_local_serve.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"

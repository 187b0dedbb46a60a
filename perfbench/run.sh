#!/usr/bin/env bash
# Builds `rpq` and the benchmark client from source, then runs the client
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the repository root (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . bin/rpq_cli.exe perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"

#!/usr/bin/env bash
# Build the benchmark and the threadfuser CLI from this checkout, then run
# one benchmark workload:
#   bash tfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result
# (see METRICS.md).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "tfbench: run from a threadfuser checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
dune build --root . --display quiet --cache=disabled \
  ./tfbench/tfbench.exe ./bin/threadfuser_cli.exe 1>&2
# timeout signals its whole process group, serve daemons included, so a
# hung run ends well inside the 180 s a run may take.
TFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  exec timeout -k 5 170 ./_build/default/tfbench/tfbench.exe "$@"

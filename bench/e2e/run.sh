#!/usr/bin/env bash
# Builds the minpower CLI and the end-to-end benchmark from source, then
# runs the benchmark with the given arguments (see bench/e2e/README.md):
#   bash bench/e2e/run.sh --workload dag-joint --seed 1 --seconds 15 --trace 0
#   bash bench/e2e/run.sh compare base.json new.json
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . ./bin/minpower.exe ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"

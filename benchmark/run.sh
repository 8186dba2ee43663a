#!/usr/bin/env bash
# Entry point of the repository benchmark (BENCHMARK.json's command):
# builds the runner and bin/synth.exe from this checkout, then runs
#   main.exe --workload W --seed N --seconds S --trace 0|1
# with the arguments given. Run it from the root of a source checkout.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "benchmark/run.sh: run from the root of a source checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi

# Build output goes to stderr: the last line of stdout is the result.
# The shared build cache lives outside the checkout, so it stays off.
dune build --root . --cache=disabled ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"

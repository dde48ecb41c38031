#!/bin/sh
# Build pf-broker and pfbench from this checkout, then run pfbench with the
# given arguments from the checkout root, e.g.
#   sh bench/pfbench/run.sh --workload psd-dense --seed 1 --seconds 20 --trace 0
# Build output goes to stderr so the last line of stdout stays pfbench's
# JSON result.
set -e
cd "$(dirname "$0")/../.."
dune build --root . ./bin/pf_broker.exe ./bench/pfbench/pfbench.exe 1>&2
exec ./_build/default/bench/pfbench/pfbench.exe "$@"

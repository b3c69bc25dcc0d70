#!/bin/bash
# Run every workload of the benchmark from one seed, each in its own process,
# and print every end-to-end metric with its unit, prefixed by the workload.
#
#   bash perfbench/run_all.sh [SEED] [SECONDS]
#
# Run from the root of the checkout.  Exits non-zero if any run fails.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-30}"
for workload in hierarchy_verify structure_checks exactness; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | sed "s/^/$workload /"
done

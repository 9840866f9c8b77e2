#!/usr/bin/env bash
# Repeatability check: two full sets of runs of the same code, ten seeds
# per workload each (or the count given as $1), every end-to-end metric
# held against its BENCHMARK.json bound. Exits non-zero when a median
# moved, or a quartile spread is wider, than the bound allows.
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -check -reps "${1:-10}"

#!/usr/bin/env bash
# Regenerate tests/data/golden_metrics.json: the --stats-json metrics
# and registry counters of 8 suite rows x 3 L2 policies at a
# 300k-instruction window (75k warm-up), as emissary_sim reports them.
#
# test_golden compares a fresh run of every cell against this file
# exactly. The other bit-identity tests compare two paths of one
# build, so a change that moves both paths at once passes them; this
# fixture pins the numbers themselves. Regenerate it only together
# with a change that is meant to move simulated results, from the
# build of that change, and say so in the change's notes.
#
# Usage: ./scripts/make_golden_metrics.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
sim="$build/tools/emissary_sim"
[ -x "$sim" ] || {
    echo "$sim not built (cmake --build $build --target emissary_sim)" >&2
    exit 1
}

rows="tomcat verilator finagle-http data-serving xapian tpcc media-stream kafka"
policies=("TPLRU" "P(8):S&E&R(1/32)" "DRRIP")
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

n=0
for row in $rows; do
    for policy in "${policies[@]}"; do
        "$sim" --benchmark "$row" --policy "$policy" \
            --instructions 300000 --warmup 75000 \
            --stats-json "$out/$(printf '%02d' "$n").json" >/dev/null
        n=$((n + 1))
    done
done

python3 - "$out" tests/data/golden_metrics.json <<'EOF'
import glob, json, sys
cells = []
for path in sorted(glob.glob(sys.argv[1] + "/*.json")):
    run = json.load(open(path))
    cells.append({key: run[key] for key in
                  ("benchmark", "policy", "config", "metrics", "counters")})
with open(sys.argv[2], "w") as f:
    json.dump({"schema": "emissary.golden.v1", "cells": cells}, f,
              indent=1)
    f.write("\n")
print(f"{sys.argv[2]}: {len(cells)} cells")
EOF

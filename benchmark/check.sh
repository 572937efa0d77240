#!/usr/bin/env bash
# The benchmark's own acceptance run: unit tests, a smoke pass over the
# four workloads, two full sets of the same commit and --compare between
# them (the repeatability criterion), then a traced pass.
# About 5 minutes on a 2-core host. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

out=out/check
workloads=(bcast16_rho90 mixed8x8x16_rho70 ucast16_rho30 small4_rho90)
bench() { cargo run --release --offline --quiet -- "$@"; }

cargo test --release --offline --quiet

rm -rf "$out"
for w in "${workloads[@]}"; do
  bench --workload "$w" --smoke --out "$out/smoke.json" | tail -n 1
done

for set in a b; do
  for w in "${workloads[@]}"; do
    bench --workload "$w" --seed 1 --out "$out/set_$set.json" | tail -n 1
  done
done
bench --compare "$out/set_a.json" "$out/set_b.json"

for w in "${workloads[@]}"; do
  bench --workload "$w" --seed 2 --trace 1 --out "$out/traced.json" | tail -n 1
done
echo "check.sh: all passed; records and traces are in benchmark/$out/"

#!/usr/bin/env bash
# Byte-identity gate for the reproduced paper figures.
#
#   scripts/fig_check.sh [build-dir]            # compare (default: build)
#   scripts/fig_check.sh --update [build-dir]   # rewrite the digests
#
# Runs fig5_path_length, fig7_breakdown, fig11_failures and fig12_churn from
# an already-built tree with their default workloads and `--json`, and
# compares the sha256 of every text and JSON output against the committed
# bench/baselines/fig_digests.sha256. Any differing byte fails the check,
# so a refactor that claims "figures unchanged" is checked, not asserted.
# Output is identical at any CYCLOID_BENCH_THREADS; every other
# CYCLOID_BENCH_* knob changes the workload and is cleared here.
set -euo pipefail

cd "$(dirname "$0")/.."
repo="$(pwd)"
digests="$repo/bench/baselines/fig_digests.sha256"

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
fi
build_dir="$(cd "${1:-build}" && pwd)"

for var in $(compgen -e); do
  if [[ "$var" == CYCLOID_BENCH_* && "$var" != CYCLOID_BENCH_THREADS ]]; then
    unset "$var"
  fi
done

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for fig in fig5_path_length fig7_breakdown fig11_failures fig12_churn; do
  (cd "$out" && "$build_dir/bench/$fig" --json "$fig.json" > "$fig.txt")
done

if [[ $update -eq 1 ]]; then
  (cd "$out" && sha256sum -- *.txt *.json) > "$digests"
  echo "fig_check: wrote $digests"
  exit 0
fi

if (cd "$out" && sha256sum --quiet -c "$digests"); then
  echo "fig_check: fig5/fig7/fig11/fig12 text and JSON byte-identical"
else
  echo "fig_check: figure output differs from $digests" >&2
  exit 1
fi

#!/usr/bin/env bash
# Report which preset artifacts change bytes between a base revision and the
# working tree.  Every shipped preset runs through the CLI, each run in a
# fresh process, once in a worktree of the base revision and once in this
# checkout; `diff -rq` then names each file that differs.  Report only: the
# exit status is 0 whenever both sets of runs succeed, whatever the diff says.
#
#   .github/scripts/artifact-delta.sh <base-revision>
#
# Scratch files go under $TMPDIR (default /tmp).
set -euo pipefail
base=${1:?usage: artifact-delta.sh <base-revision>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$work/base-checkout" 2>/dev/null || true; rm -rf "$work"' EXIT
git -C "$root" worktree add --detach --quiet "$work/base-checkout" "$base"

run_presets() {  # <checkout> <output directory>
  local src=$1/src out=$2 preset
  for preset in $(PYTHONPATH=$src python -m qradar.cli presets list); do
    PYTHONPATH=$src python -m qradar.cli presets show "$preset" > "$work/$preset.json"
    QRADAR_OUTPUT_DIR="$out/$preset" PYTHONPATH=$src \
      python -m qradar.cli run "$work/$preset.json" > /dev/null
  done
}

run_presets "$work/base-checkout" "$work/base"
run_presets "$root" "$work/head"
if diff -rq "$work/base" "$work/head"; then
  echo "every preset artifact is byte-identical to $base"
fi

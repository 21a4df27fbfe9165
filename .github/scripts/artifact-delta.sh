#!/usr/bin/env bash
# Report which preset artifacts change bytes between a base revision and the
# working tree.  Every shipped preset runs through the CLI, each run in a
# fresh process, once in a worktree of the base revision and once in this
# checkout; `diff -rq` then names each file that differs, and for each JSON
# file that differs, the flattened keys (e.g. `inputs.seed`) whose values
# change.  Report only: the exit status is 0 whenever both sets of runs
# succeed, whatever the diff says.
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
else
  python - "$work/base" "$work/head" <<'PY'
import json, sys
from pathlib import Path

def flat(obj, prefix=""):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = ((f"[{i}]", v) for i, v in enumerate(obj))
    else:
        return {prefix: obj}
    out = {}
    for key, value in items:
        sep = "" if not prefix or key.startswith("[") else "."
        out.update(flat(value, f"{prefix}{sep}{key}"))
    return out

base, head = map(Path, sys.argv[1:])
for old in sorted(base.rglob("*.json")):
    new = head / old.relative_to(base)
    if not new.is_file() or old.read_bytes() == new.read_bytes():
        continue
    a, b = (flat(json.loads(p.read_text(encoding="utf-8"))) for p in (old, new))
    missing = object()
    changed = sorted(k for k in a.keys() | b.keys() if a.get(k, missing) != b.get(k, missing))
    print(f"{old.relative_to(base)}: keys changed: {', '.join(changed)}")
PY
fi

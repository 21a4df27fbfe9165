#!/usr/bin/env bash
# Report which preset artifacts change bytes between a base revision and the
# working tree.  Every shipped preset runs through the CLI, each run in a
# fresh process, once on the base revision's src/ and once on this
# checkout's; `diff -rq` then names each file that differs.  For each CSV or
# JSON file that differs, it also prints the largest relative change
# |a - b| / max(|a|, |b|) over the numeric CSV cells or JSON numbers present
# at both revisions, and where it falls; for JSON, also the flattened keys
# (e.g. `inputs.seed`) whose values change.  Report only: the exit status is
# 0 whenever both sets of runs succeed, whatever the diff says.
#
#   .github/scripts/artifact-delta.sh <base-revision>
#
# Scratch files go under $TMPDIR (default /tmp).
set -euo pipefail
base=${1:?usage: artifact-delta.sh <base-revision>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# The base revision's src/ only, extracted with git archive: nothing is
# written into the checkout's .git.
mkdir "$work/base-checkout"
git -C "$root" archive "$base" src | tar -x -C "$work/base-checkout"

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
import csv, json, math, sys
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

def cell(text):
    """A CSV cell's number (NaN and inf included); None for a non-numeric cell."""
    try:
        return float(text)
    except ValueError:
        return None

def cells(path):
    """A CSV file's cells as numbers (None where not numeric), keyed
    "row <i> <column header>", data rows counted from 1."""
    with path.open(newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f)) or [[]]
    return {f"row {i} {name}": cell(text)
            for i, row in enumerate(rows, 1) for name, text in zip(header, row)}

def numbers(values):
    """The JSON numbers among flattened values (JSON keeps NaN and inf as strings)."""
    return {k: float(v) for k, v in values.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}

def relative(a, b):
    if a == b or (a != a and b != b):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))

base, head = map(Path, sys.argv[1:])
for old in sorted(p for p in base.rglob("*") if p.suffix in (".csv", ".json")):
    new = head / old.relative_to(base)
    if not new.is_file() or old.read_bytes() == new.read_bytes():
        continue
    name = old.relative_to(base)
    if old.suffix == ".json":
        a, b = (flat(json.loads(p.read_text(encoding="utf-8"))) for p in (old, new))
        missing = object()
        changed = sorted(k for k in a.keys() | b.keys() if a.get(k, missing) != b.get(k, missing))
        print(f"{name}: keys changed: {', '.join(changed)}")
        a, b = numbers(a), numbers(b)
    else:
        a, b = cells(old), cells(new)
    both = (k for k in a.keys() & b.keys() if a[k] is not None and b[k] is not None)
    changes = [(relative(a[k], b[k]), k) for k in both]
    if changes:
        worst, where = max(changes)
        print(f"{name}: largest relative change {worst:.3e} ({where})")
    else:
        print(f"{name}: no numeric value present at both revisions")
PY
fi

"""Span tracing of qradar's public functions, installed from outside the package.

Each traced function is replaced, in every qradar namespace that binds it, by
a wrapper that records one span (name, start, end, parent) per call; methods
are patched on their class.  ``scipy.optimize.root`` is wrapped to count the
operating-point fallbacks.  Spans stay in memory until :meth:`Tracer.write`.
Spans assume single-threaded calls, which holds because every workload runs
with ``parallelism`` 1.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module under qradar, attribute path, layer).  The CLI layer groups the
# cli, config and output modules.
TARGETS = (
    ("gaussian", "GaussianState.validate_physical", "gaussian"),
    ("gaussian", "symplectic_eigenvalues", "gaussian"),
    ("gaussian", "apply_channel", "gaussian"),
    ("gaussian", "sample", "gaussian"),
    ("gaussian", "wigner", "gaussian"),
    ("criteria", "gaussian_discord", "criteria"),
    ("criteria", "lambda_sph", "criteria"),
    ("criteria", "two_eta", "criteria"),
    ("criteria", "BipartiteBlocks.validate_physical", "criteria"),
    ("langevin", "diffusion_from_baths", "langevin"),
    ("langevin", "is_stable", "langevin"),
    ("langevin", "steady_state_cov", "langevin"),
    ("eom", "operating_point", "eom"),
    ("eom", "build_model", "eom"),
    ("eom", "entanglement_report", "eom"),
    ("eom", "sweep", "eom"),
    ("eom", "threshold_temperature", "eom"),
    ("oe", "operating_point", "oe"),
    ("oe", "build_model", "oe"),
    ("oe", "direct_report", "oe"),
    ("oe", "end_to_end_report", "oe"),
    ("oe", "entanglement_vs_detuning", "oe"),
    ("oe", "threshold_temperature", "oe"),
    ("channels", "round_trip", "channels"),
    ("channels", "n_eff_closed", "channels"),
    ("channels", "n_eff_general", "channels"),
    ("jpa", "build_params", "jpa"),
    ("jpa", "scattering_matrix", "jpa"),
    ("jpa", "signal_power_gain", "jpa"),
    ("jpa", "intracavity_cov", "jpa"),
    ("receiver", "tmsv_cm", "receiver"),
    ("receiver", "run_detection", "receiver"),
    ("receiver", "ci_baseline", "receiver"),
    ("receiver", "roc_curve", "receiver"),
    ("sweeps", "run_grid", "sweeps"),
    ("sweeps", "bisect_threshold", "sweeps"),
    ("cli", "run_scenario", "cli"),
    ("config", "parse_config", "cli"),
    ("output", "write_csv", "cli"),
    ("output", "write_json", "cli"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))
SPAN_NAMES = tuple(f"{module}.{path}" for module, path, _ in TARGETS)

RATIO_METRICS = (
    "langevin.is_stable.calls_per_steady_state",
    "criteria.validate_physical.calls_per_discord",
    "eom.operating_point.fallback_ratio",
    "oe.operating_point.fallback_ratio",
    "sweeps.bisect_threshold.evals_per_call",
    "trace.overhead_ratio",
)

# Spans that count as one evaluation of a bisection's crossing function.
_CROSSING_SPANS = ("eom.entanglement_report", "oe.direct_report", "oe.end_to_end_report")


def per_layer_units(preset_names) -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s/op"
    for preset in preset_names:
        units[f"cli.preset.{preset}.wall_s"] = "s"
    for name in RATIO_METRICS:
        units[name] = "ratio"
    return units


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (the union, so overlapping children count once).

    ``spans`` is a sequence of (name, start, end, parent index or -1).
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Installs span-recording wrappers; :meth:`restore` puts the originals back."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.root_calls: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def recording(self):
        """Record spans only inside this block."""
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    def _count_calls(self, fn):
        """Count calls of ``fn`` by the traced function that makes them."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.root_calls[self._stack[-1][1] if self._stack else ""] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap every target in each qradar namespace that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "qradar" or n.startswith("qradar.")]
        for module_name, path, _ in TARGETS:
            module = importlib.import_module(f"qradar.{module_name}")
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    self._patch(mod, attr, wrapper)
        optimize = importlib.import_module("scipy.optimize")
        self._patch(optimize, "root", self._count_calls(optimize.root))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summarize(self, n_ops: int) -> dict[str, float]:
        """Per-op calls and self time per function and layer, plus the ratios
        that count repeated work (all but ``trace.overhead_ratio``)."""
        spans = self.spans
        selfs = self_times(spans)
        calls, self_s = Counter(), Counter()
        for (name, _, _, _), own in zip(spans, selfs):
            calls[name] += 1
            self_s[name] += own
        out = {}
        for module_name, path, _ in TARGETS:
            name = f"{module_name}.{path}"
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self_s[f"{m}.{p}"] for m, p, lay in TARGETS if lay == layer
            ) / n_ops

        def ancestors(i):
            parent = spans[i][3]
            while parent >= 0:
                yield parent
                parent = spans[parent][3]

        # Stability checks made for a steady-state solve, inside it or by
        # the function that asked for it.
        solves = {i for i, s in enumerate(spans) if s[0] == "langevin.steady_state_cov"}
        askers = {spans[i][3] for i in solves} - {-1}
        checks = sum(
            1 for s in spans if s[0] == "langevin.is_stable" and (s[3] in solves or s[3] in askers)
        )
        out["langevin.is_stable.calls_per_steady_state"] = _ratio(checks, len(solves))
        nested = sum(
            1
            for i, s in enumerate(spans)
            if s[0] == "gaussian.GaussianState.validate_physical"
            and any(spans[a][0] == "criteria.gaussian_discord" for a in ancestors(i))
        )
        out["criteria.validate_physical.calls_per_discord"] = _ratio(
            nested, calls["criteria.gaussian_discord"]
        )
        for module_name in ("eom", "oe"):
            name = f"{module_name}.operating_point"
            out[f"{name}.fallback_ratio"] = _ratio(self.root_calls[name], calls[name])
        bisections = {i for i, s in enumerate(spans) if s[0] == "sweeps.bisect_threshold"}
        evals = sum(1 for s in spans if s[3] in bisections and s[0] in _CROSSING_SPANS)
        out["sweeps.bisect_threshold.evals_per_call"] = _ratio(evals, len(bisections))
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 where nothing was counted."""
    return numerator / denominator if denominator else 0.0

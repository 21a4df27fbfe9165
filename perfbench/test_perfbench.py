"""Self-tests of the benchmark: span arithmetic, wrapper transparency and
restoration, and metric naming.

    python3 -m pytest -q perfbench
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qradar import eom, langevin, receiver  # noqa: E402
from qradar.gaussian import GaussianState  # noqa: E402
from qradar.presets import SCENARIO_PRESETS, eom_reference, qi_low_signal_scenario  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("c", 5.5, 7.0, 0),  # overlaps b: the union counts once
        ("other_root", 11.0, 12.5, -1),
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 1.0, 1.0, 1.5, 1.5]


def _wrapped_names():
    return {
        "steady_state_cov": (eom.steady_state_cov, langevin.steady_state_cov),
        "validate_physical": GaussianState.__dict__["validate_physical"],
        "run_detection": receiver.run_detection,
    }


def test_wrappers_are_transparent_and_restored():
    import scipy.optimize

    originals = _wrapped_names()
    root = scipy.optimize.root
    params = eom_reference()
    scenario = qi_low_signal_scenario(n_decisions=20, samples_per_decision=50, seed=7)
    plain_report = eom.entanglement_report(params)
    plain_detection = receiver.run_detection(scenario)

    t = tracer.Tracer().install()
    try:
        assert eom.steady_state_cov is not originals["steady_state_cov"][0]
        assert eom.steady_state_cov is langevin.steady_state_cov
        with t.recording():
            traced_report = eom.entanglement_report(params)
            traced_detection = receiver.run_detection(scenario)
    finally:
        t.restore()

    assert traced_report == plain_report
    assert np.array_equal(traced_detection.h0, plain_detection.h0)
    assert np.array_equal(traced_detection.h1, plain_detection.h1)
    assert _wrapped_names() == originals
    assert scipy.optimize.root is root

    metrics = t.summarize(n_ops=1)
    assert metrics["eom.entanglement_report.calls"] == 1
    assert metrics["receiver.run_detection.calls"] == 1
    assert metrics["langevin.is_stable.calls_per_steady_state"] == 2
    assert metrics["criteria.validate_physical.calls_per_discord"] == 3
    assert metrics["gaussian.GaussianState.validate_physical.calls"] == 10


def test_metric_names_and_benchmark_listing():
    per_layer = tracer.per_layer_units(SCENARIO_PRESETS)
    names = list(per_layer) + list(run.END_TO_END_UNITS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_statistic_moments_match_a_direct_draw():
    rng = np.random.default_rng(3)
    mean = np.array([0.3, -0.2, 0.5, 0.1])
    a = rng.standard_normal((4, 4))
    cov = a @ a.T + np.eye(4)
    draws = rng.multivariate_normal(mean, cov, size=400_000)
    for conjugate in (True, False):
        sign = -1.0 if conjugate else 1.0
        s = draws[:, 0] * draws[:, 2] + sign * draws[:, 1] * draws[:, 3]
        expected, variance = workloads.statistic_moments(mean, cov, conjugate)
        assert abs(s.mean() - expected) < 5 * math.sqrt(variance / s.size)
        assert abs(s.var() / variance - 1.0) < 0.02

"""The benchmark's workloads: seeded inputs, the timed call, and its checks.

A workload runs a fixed cycle of op kinds.  ``make`` draws one op's inputs
from the workload's seeded generator, ``run`` is the only timed call, and
``check`` validates the op's outputs afterwards, raising :class:`CheckFailed`.
No two ops share inputs, except the shipped presets, which are fixed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from qradar import cli, eom, oe, receiver
from qradar.criteria import BipartiteBlocks, lambda_sph
from qradar.gaussian import GaussianState, apply_channel, symplectic_eigenvalues, vacuum_state
from qradar.langevin import steady_state_cov
from qradar.presets import SCENARIO_PRESETS, channel_preset, eom_reference, oe_reference

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))

GRID_POINTS = 32
RESOLUTION_K = 1e-3          # threshold bisection resolution (library default)
PERTURBATION = 0.01          # relative jitter of the reference parameters
PHYSICAL_TOL = 1e-6          # vacuum-bound slack, as the converters validate
QI_PHOTONS, QI_BACKGROUND, QI_TRANSMISSIVITY = 0.01, 10.0, 0.2
QI_SIGMAS = 6.0              # z bound for Monte-Carlo moment tests


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * max(1.0, abs(reference))


def stratified(rng, lo: float, hi: float, n: int = GRID_POINTS, log: bool = False) -> list[float]:
    """Ascending grid with one uniform draw in each of ``n`` equal cells."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    edges = np.linspace(a, b, n + 1)
    points = edges[:-1] + rng.random(n) * np.diff(edges)
    return [float(v) for v in (np.exp(points) if log else points)]


def check_report(report) -> None:
    """Invariants of one mode pair's criteria."""
    values = (report.lambda_sph, report.two_eta, report.discord,
              report.classical_corr, report.mutual_info)
    require(all(math.isfinite(v) for v in values), f"non-finite criteria {values}")
    require(report.entangled_by_sph == report.entangled_by_ppt,
            f"lambda_sph {report.lambda_sph} and two_eta {report.two_eta} disagree")
    require(min(report.discord, report.classical_corr) >= 0.0, "negative correlation")
    require(close(report.discord + report.classical_corr, report.mutual_info, 1e-9),
            "discord + classical correlation != mutual information")


def check_physical(cov: np.ndarray) -> None:
    nu_min = float(symplectic_eigenvalues(cov).min())
    require(nu_min >= 0.5 - PHYSICAL_TOL, f"steady state violates nu >= 1/2 ({nu_min})")


_REF_A = np.random.default_rng(0).standard_normal((6, 6))
_REF_B = np.random.default_rng(1).standard_normal((36, 36)) + 36.0 * np.eye(36)


def speed_reference() -> None:
    """Fixed small dense algebra of the shapes the converters use (6x6
    eigenvalues, a 36x36 solve) and no qradar code, so its time follows
    only the machine's current speed."""
    for _ in range(60):
        m = _REF_A + np.eye(6)
        np.linalg.eigvals(m)
        np.linalg.solve(_REF_B, _REF_B[:, 0])
        m @ m.T


class Workload:
    """One op kind per entry of ``kinds``; ``work`` units per op of a kind."""

    kinds: tuple[str, ...] = ()
    unit = "ops"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def make(self, kind: str):
        raise NotImplementedError

    def run(self, kind: str, inputs):
        raise NotImplementedError

    def check(self, kind: str, inputs, result) -> None:
        raise NotImplementedError

    def work(self, kind: str) -> int:
        return 1


class ConverterSweep(Workload):
    """32-point converter sweeps on the shipped presets' axes and ranges."""

    kinds = ("eom_temperature", "eom_wavelength", "eom_gamma_m", "oe_detuning")
    unit = "points"
    _axes = {
        "eom_temperature": ("temperature", 0.001, 0.351, False),
        "eom_wavelength": ("wavelength", 8.0e-7, 1.6e-6, False),
        "eom_gamma_m": ("gamma_m", 2 * math.pi * 5.0, 2 * math.pi * 1500.0, True),
        "oe_detuning": ("delta_eg", -3.0e7, 3.0e7, False),
    }

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.eom_params = eom_reference()
        self.oe_params = oe_reference()

    def make(self, kind):
        _, lo, hi, log = self._axes[kind]
        return stratified(self.rng, lo, hi, log=log)

    def run(self, kind, grid):
        if kind == "oe_detuning":
            return oe.entanglement_vs_detuning(self.oe_params, grid)
        return eom.sweep(self.eom_params, self._axes[kind][0], grid)

    def work(self, kind):
        return GRID_POINTS

    def _eom_params_at(self, axis: str, value: float):
        if axis == "wavelength":
            return self.eom_params.at_wavelength(value)
        return dataclasses.replace(self.eom_params, **{axis: value})

    def check(self, kind, grid, result):
        points = result.points if kind == "oe_detuning" else result
        require(len(points) == len(grid), "sweep dropped points")
        axis_values = [p.delta_eg if kind == "oe_detuning" else p.axis_value for p in points]
        require(axis_values == grid, "sweep output does not follow the grid")
        stable = [p for p in points if p.stable]
        require(stable, "no stable point in the sweep")
        # Recompute one stable point outside the timed call.
        probe = stable[int(self.rng.integers(len(stable)))]
        if kind == "oe_detuning":
            for p in stable:
                require(math.isfinite(p.two_eta) and p.two_eta > 0.0, "invalid two_eta")
            best = min(stable, key=lambda p: p.two_eta)
            require(result.argmin_delta_eg == best.delta_eg
                    and result.min_two_eta == best.two_eta, "detuning argmin")
            params = dataclasses.replace(self.oe_params, delta_eg=probe.delta_eg)
            check_physical(steady_state_cov(oe.build_model(params)))
            report = oe.direct_report(params)
            check_report(report)
            require(close(report.two_eta, probe.two_eta, 1e-9), "detuning point not reproducible")
            return
        for p in stable:
            for report in p.reports.values():
                check_report(report)
        params = self._eom_params_at(self._axes[kind][0], probe.axis_value)
        cov = steady_state_cov(eom.build_model(params))
        check_physical(cov)
        blocks = BipartiteBlocks(cov[2:4, 2:4], cov[4:6, 4:6], cov[2:4, 4:6])
        require(close(lambda_sph(blocks), probe.reports["oc_mc"].lambda_sph, 1e-9),
                "oc_mc lambda_sph not reproducible from the steady state")


class ThresholdBisection(Workload):
    """The five separability thresholds at perturbed reference parameters."""

    kinds = ("eom_oc_mc", "eom_oc_mr", "eom_mr_mc", "oe_direct", "oe_backscatter")
    unit = "thresholds"
    _eom_jitter = ("kappa_c", "kappa_w", "gamma_m", "e_w")
    _oe_jitter = ("kappa_c", "kappa_w", "gamma_p", "e_w")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.atmosphere = channel_preset("fig10_atmosphere")
        self.target = channel_preset("fig10_target")

    def make(self, kind):
        base, names = (eom_reference(), self._eom_jitter) if kind.startswith("eom") else (
            oe_reference(), self._oe_jitter)
        factors = 1.0 + PERTURBATION * self.rng.uniform(-1.0, 1.0, len(names))
        return dataclasses.replace(
            base, **{n: getattr(base, n) * float(f) for n, f in zip(names, factors)})

    def _crossing(self, kind, params, temperature):
        """The function each threshold bisects, as the library defines it."""
        params = dataclasses.replace(params, temperature=temperature)
        if kind.startswith("eom"):
            return eom.entanglement_report(params)[kind[4:]].lambda_sph
        if kind == "oe_direct":
            return oe.direct_report(params).two_eta - 1.0
        return oe.end_to_end_report(params, self.atmosphere, self.target).two_eta - 1.0

    def run(self, kind, params):
        if kind.startswith("eom"):
            return eom.threshold_temperature(params, kind[4:], resolution=RESOLUTION_K)
        if kind == "oe_direct":
            return oe.threshold_temperature(params, resolution=RESOLUTION_K)
        return oe.threshold_temperature(params, resolution=RESOLUTION_K,
                                        channel_spec=self.atmosphere, target_spec=self.target)

    def check(self, kind, params, threshold):
        require(threshold is not None, "no threshold found")
        reference = GOLDEN["thresholds_k"][kind]
        require(0.5 * reference < threshold < 2.0 * reference,
                f"threshold {threshold} K far from the reference {reference} K")
        lo = 0.0 if kind.startswith("eom") else 1e-4
        below = self._crossing(kind, params, max(threshold - RESOLUTION_K, lo))
        above = self._crossing(kind, params, threshold + RESOLUTION_K)
        require(below < 0.0 <= above, f"threshold {threshold} K does not bracket the crossing")


def statistic_moments(mean, cov, conjugate: bool) -> tuple[float, float]:
    """Exact mean and variance of one sample of x_R x_I -+ p_R p_I for
    Gaussian (x_R, p_R, x_I, p_I) ~ N(mean, cov), by Isserlis' theorem."""
    terms = ((0, 2, 1.0), (1, 3, -1.0 if conjugate else 1.0))
    m, c = mean, cov
    expectation = sum(w * (c[a, b] + m[a] * m[b]) for a, b, w in terms)
    variance = 0.0
    for a, b, w in terms:
        for x, y, v in terms:
            variance += w * v * (
                c[a, x] * c[b, y] + c[a, y] * c[b, x]
                + m[a] * m[x] * c[b, y] + m[a] * m[y] * c[b, x]
                + m[b] * m[x] * c[a, y] + m[b] * m[y] * c[a, x]
            )
    return expectation, variance


def qi_record_moments(r, signal, background):
    """Measured (mean, cov) of the (return, reference) record for QI and CI
    under H0 and H1, rebuilt from the public state and channel API with the
    heterodyne vacuum added to every quadrature."""
    het = 0.5 * np.eye(4)
    source = receiver.tmsv_cm(r)
    ret0 = apply_channel(vacuum_state(1), background)

    def joint(ret_mean, ret_cov, ref_mean, ref_cov):
        cov = np.zeros((4, 4))
        cov[:2, :2], cov[2:, 2:] = ret_cov, ref_cov
        return np.concatenate([ret_mean, ref_mean]), cov + het

    qi_h1 = apply_channel(source, signal.expand(0, 2))
    alpha = math.sinh(r)
    tone = GaussianState(1, [math.sqrt(2.0) * alpha, 0.0], 0.5 * np.eye(2))
    ret1 = apply_channel(tone, signal)
    return {
        "qi": (joint(ret0.mean, ret0.cov, np.zeros(2), source.cov[2:, 2:]),
               (qi_h1.mean, qi_h1.cov + het)),
        "ci": (joint(ret0.mean, ret0.cov, tone.mean, tone.cov),
               joint(ret1.mean, ret1.cov, tone.mean, tone.cov)),
    }


class QiDetection(Workload):
    """run_detection + ci_baseline + both ROC curves at the qi_roc_low_signal
    physics, with a fresh seed for every op."""

    unit = "decisions"

    def __init__(self, seed, workdir, samples: int, decisions: int):
        super().__init__(seed, workdir)
        self.kinds = (f"k{samples}",)
        self.samples, self.decisions = samples, decisions
        self.r = math.asinh(math.sqrt(QI_PHOTONS))
        self.signal, self.background = receiver.low_signal_channels(
            QI_BACKGROUND, QI_TRANSMISSIVITY)
        self.moments = {}
        for label, hypotheses in qi_record_moments(self.r, self.signal, self.background).items():
            for h, (mean, cov) in enumerate(hypotheses):
                self.moments[label, h] = statistic_moments(mean, cov, label == "qi")

    def make(self, kind):
        return receiver.QiScenario(
            r=self.r,
            signal_channel=self.signal,
            background_channel=self.background,
            samples_per_decision=self.samples,
            n_decisions=self.decisions,
            seed=int(self.rng.integers(2**63)),
        )

    def run(self, kind, scenario):
        qi = receiver.run_detection(scenario)
        ci = receiver.ci_baseline(scenario)
        return qi, ci, receiver.roc_curve(qi.h0, qi.h1), receiver.roc_curve(ci.h0, ci.h1)

    def work(self, kind):
        # Each decision draws both hypotheses; QI and CI decisions both count.
        return 2 * self.decisions

    def check(self, kind, scenario, result):
        qi, ci, roc_qi, roc_ci = result
        k, n = self.samples, self.decisions
        # Excess kurtosis of a k-sample mean of Gaussian products is at most 12/k.
        var_sigma = math.sqrt((2.0 + 12.0 / k) / (n - 1))
        for label, samples in (("qi", qi), ("ci", ci)):
            for h, values in enumerate((samples.h0, samples.h1)):
                require(values.shape == (n,) and np.isfinite(values).all(),
                        f"{label} H{h} statistics malformed")
                mean, var = self.moments[label, h]
                z = (values.mean() - mean) / math.sqrt(var / (k * n))
                require(abs(z) <= QI_SIGMAS, f"{label} H{h} mean off by {z:.1f} sigma")
                ratio = values.var(ddof=1) / (var / k)
                require(abs(ratio - 1.0) <= QI_SIGMAS * var_sigma,
                        f"{label} H{h} variance ratio {ratio:.3f}")
        for roc in (roc_qi, roc_ci):
            require(0.0 <= roc.auc <= 1.0, f"AUC {roc.auc} outside [0, 1]")
        if k >= 1000:
            require(roc_qi.auc > roc_ci.auc,
                    f"AUC_QI {roc_qi.auc} does not beat AUC_CI {roc_ci.auc}")


def auc_sigma(auc: float, n0: int, n1: int) -> float:
    """Hanley-McNeil standard error of an empirical AUC."""
    q1, q2 = auc / (2.0 - auc), 2.0 * auc**2 / (1.0 + auc)
    return math.sqrt(
        (auc * (1 - auc) + (n1 - 1) * (q1 - auc**2) + (n0 - 1) * (q2 - auc**2)) / (n0 * n1))


def flatten(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def check_golden(name: str, key: str, value, spec: dict) -> None:
    """One summary value against its pinned value and tolerance."""
    pinned = spec.get("value")
    where = f"{name}: {key} = {value!r}"
    if "max" in spec:
        require(abs(value) <= spec["max"], f"{where} exceeds {spec['max']}")
    elif "abs" in spec:
        require(abs(value - pinned) <= spec["abs"], f"{where}, pinned {pinned}")
    elif "rel" in spec:
        require(close(value, pinned, spec["rel"]), f"{where}, pinned {pinned}")
    elif "auc_n" in spec:
        # 3 sigma of the difference between two independent draws.
        sigma = math.sqrt(2.0) * auc_sigma(pinned, spec["auc_n"], spec["auc_n"])
        require(abs(value - pinned) <= 3.0 * sigma, f"{where} outside 3 sigma of {pinned}")
    elif "corr_n" in spec:
        sigma = math.sqrt(2.0) * (1.0 - pinned**2) / math.sqrt(spec["corr_n"])
        require(abs(value - pinned) <= 3.0 * sigma, f"{where} outside 3 sigma of {pinned}")
    else:
        require(value == pinned, f"{where}, pinned {pinned!r}")


class Presets(Workload):
    """Shipped presets through ``qradar.cli.main(["run", <config>])``; each
    preset is an op kind, so a cycle is one pass over the presets."""

    unit = "presets"

    def __init__(self, seed, workdir, names):
        super().__init__(seed, workdir)
        self.kinds = tuple(names)
        self.configs, self.outputs = {}, {}
        for name in self.kinds:
            self.configs[name] = workdir / "configs" / f"{name}.json"
            self.outputs[name] = workdir / "out" / name
            self.configs[name].parent.mkdir(parents=True, exist_ok=True)
            self.outputs[name].mkdir(parents=True, exist_ok=True)
            self.configs[name].write_text(json.dumps(SCENARIO_PRESETS[name]), encoding="utf-8")

    def make(self, kind):
        return self.configs[kind]

    def run(self, kind, config):
        # Artifacts go to $QRADAR_OUTPUT_DIR: an output_dir key would change
        # config_sha256.
        os.environ["QRADAR_OUTPUT_DIR"] = str(self.outputs[kind])
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", str(config)])

    def check(self, kind, config, code):
        require(code == 0, f"{kind} exited with {code}")
        summary = json.loads((self.outputs[kind] / "summary.json").read_text(encoding="utf-8"))
        require(summary["status"] == "ok", f"{kind} status {summary['status']}")
        values = flatten(summary["summary"])
        pinned = GOLDEN["presets"][kind]
        require(set(values) == set(pinned), f"{kind} summary keys changed")
        for key, spec in pinned.items():
            check_golden(kind, key, values[key], spec)
        if kind == "jpa_gain":
            self._check_bogoliubov()

    def _check_bogoliubov(self) -> None:
        """|S_00|^2 - |S_01|^2 = 1 on every row of the gain sweep."""
        path = self.outputs["jpa_gain"] / "jpa_gain_vs_omega.csv"
        with path.open(encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                gain = float(row["signal_power_gain"])
                require(abs(float(row["bogoliubov_residual"])) <= 1e-9 * max(1.0, gain),
                        f"Bogoliubov residual {row['bogoliubov_residual']} at gain {gain}")


WORKLOADS = {
    "converter_sweep": ConverterSweep,
    "threshold_bisection": ThresholdBisection,
    "qi_detection_long": lambda s, w: QiDetection(s, w, samples=2000, decisions=500),
    "qi_detection_short": lambda s, w: QiDetection(s, w, samples=16, decisions=5000),
    "presets": lambda s, w: Presets(s, w, tuple(SCENARIO_PRESETS)),
}

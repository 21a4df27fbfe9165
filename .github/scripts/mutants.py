#!/usr/bin/env python3
"""Mutation check of the physics rules: would the tests notice if a
tolerance, a comparison at a physics gate or a sign in a closed form changed?

Each entry of SITES is one mutant: a file under src/qradar, a snippet that
must occur in it exactly once, its replacement, and the test files that
should notice.  A snippet that does not occur exactly once is an error, and
nothing runs.  Each mutant is made in its own temporary copy of the checkout
(the checkout itself is never written) and runs
``python -m pytest -q -x`` on its test files there, under a 300 s timeout.
Before any mutant, the same files run once on an unmutated copy, which must
pass.  At most ``os.cpu_count()`` runs go at once.

A mutant is killed when its tests fail, survives when they pass, and is
timed out when they do not finish.  The report lists every mutant; the exit
status is 1 when any survives or times out.  The harness edits no test.

    python3 .github/scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT = 300.0  # seconds per pytest run


class Site(NamedTuple):
    name: str
    file: str  # under src/qradar
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # under tests/


SITES = [
    # The physical rule nu_min >= 1/2 - 1e-9.
    Site("physical-tolerance", "gaussian.py", "(VACUUM_VARIANCE - 1e-9)", "(VACUUM_VARIANCE - 1e-7)",
         ("test_gaussian.py", "test_criteria.py")),
    # SPH entanglement is a strictly negative lambda.
    Site("sph-strict", "criteria.py", "lam < 0.0, eta2 < 1.0)", "lam <= 0.0, eta2 < 1.0)",
         ("test_criteria.py",)),
    Site("panel-depth", "channels.py", "_MAX_PANEL_DEPTH = 25.0", "_MAX_PANEL_DEPTH = 40.0",
         ("test_channels.py",)),
    Site("residual-gate", "langevin.py", "(residual <= 1e-9 * d_scale)", "(residual <= 1e-8 * d_scale)",
         ("test_langevin.py", "test_sweeps.py")),
    Site("brent-rtol", "sweeps.py", "_RTOL = 4.0 *", "_RTOL = 64.0 *", ("test_sweeps.py",)),
    Site("heterodyne-variance", "receiver.py", "noise = 0.5 * np.eye(4)", "noise = 0.5000001 * np.eye(4)",
         ("test_receiver.py",)),
    Site("tone-bound", "receiver.py", "scenario.r > 710.1292864836639", "scenario.r > 710.5",
         ("test_receiver.py",)),
    # The draws summed scaled by 2^-e, so a sum near k times the statistic stays in range.
    Site("statistic-scale", "receiver.py", "e = math.frexp(k)[1]", "e = 0", ("test_receiver.py",)),
    Site("eigvalsh-rounding", "gaussian.py", "return 32 * np.finfo(float).eps", "return 3200 * np.finfo(float).eps",
         ("test_gaussian.py", "test_channels.py")),
    Site("cp-floor", "channels.py", "-max(1e-9, rounding)", "-max(1e-6, rounding)", ("test_channels.py",)),
    Site("eigh-band", "receiver.py", "_EIGH_BAND = 64 *", "_EIGH_BAND = 6400 *", ("test_receiver.py",)),
    # The one-model chain's Hurwitz margin (is_stable); grids and bases take no such test.
    Site("stability-margin", "langevin.py", "Stability(max_re < -1e-12, max_re)", "Stability(max_re < 0.0, max_re)",
         ("test_langevin.py", "test_sweeps.py")),
    # A steady state only where the Lyapunov solution is positive definite: a
    # grid that keeps every member, and a basis that takes any V(0).
    Site("grid-positive-definite", "gaussian.py", "[:, 0] > 0.0", "[:, 0] > -np.inf", ("test_sweeps.py",)),
    Site("basis-positive-definite", "converter.py", "if not _positive_definite(cold_state)[0]:", "if not True:",
         ("test_converter.py",)),
    Site("operating-point-residual", "converter.py", "if not residual <= 1e-12:", "if not residual <= 1e-10:",
         ("test_converter.py", "test_eom.py", "test_oe.py")),
    Site("asymmetry", "gaussian.py", "> 1e-10 * np.abs(m).max(initial=1.0)", "> 1e-8 * np.abs(m).max(initial=1.0)",
         ("test_gaussian.py",)),
    Site("purity-band", "gaussian.py", "pure = lo < 1e-12", "pure = lo < 1e-9",
         ("test_gaussian.py", "test_criteria.py")),
    # h(nu)'s second term (nu - 1/2) log(1 + 1/(nu - 1/2)), with the 1 dropped.
    Site("entropy-log1p", "gaussian.py", "lo * np.log1p(1.0 / lo)", "lo * np.log(1.0 / lo)",
         ("test_gaussian.py",)),
    Site("n-eff-agreement", "channels.py", "if not diff <= 1e-6 *", "if not diff <= 1e-4 *", ("test_channels.py",)),
    # The Lyapunov system: the right-hand side -vech D, and one term of the
    # coefficient index table (A_il where j = k < l, from A V).
    Site("lyapunov-rhs-sign", "langevin.py", "rhs = -diffusions", "rhs = diffusions", ("test_langevin.py",)),
    Site("lyapunov-index-term", "langevin.py", "(j == k) & (k < l), i * d + l", "(j == k) & (k < l), i * d + k",
         ("test_langevin.py",)),
    # The PPT discriminant's cut, lowered to the 4x4 determinant's own rounding.
    Site("discriminant-cut", "criteria.py", "_DISC_CUT = 1e-6", "_DISC_CUT = 1e-16", ("test_criteria.py",)),
    # A Wigner field's normalization within 1e-3 of 1, acceptance criterion 8's bound.
    Site("wigner-normalization", "cli.py", "abs(normalization - 1.0) <= 1e-3", "abs(normalization - 1.0) <= 1e-2",
         ("test_config_cli.py",)),
    # The two-mode spectrum's sign patterns: the self-dual part of K = L^T Omega L
    # (its norm nu_+ + nu_-) and the anti-self-dual part (nu_+ - nu_-).
    Site("spectrum-self-dual-sign", "gaussian.py", "(k01 + k23) ** 2", "(k01 - k23) ** 2",
         ("test_gaussian.py", "test_criteria.py")),
    Site("spectrum-anti-self-dual-sign", "gaussian.py", "(k02 - k13) ** 2", "(k02 + k13) ** 2",
         ("test_gaussian.py", "test_criteria.py")),
    # The intracavity covariance's off-diagonal; its eigenvalues do not see it.
    Site("jpa-off-diagonal-sign", "jpa.py", "0.5 * (v_plus - v_minus)", "0.5 * (v_minus - v_plus)",
         ("test_jpa.py",)),
]


def _copy(dest: Path) -> None:
    """The checkout's files (the tests read perfbench/ and BENCHMARK.json
    too), less git's and the caches."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out",
                                    ".benchmarks")
    shutil.copytree(ROOT, dest, ignore=ignore, dirs_exist_ok=True)


def _mutated(site: Site) -> str:
    """The site's file with its snippet replaced; an error unless the snippet
    occurs exactly once."""
    text = (ROOT / "src" / "qradar" / site.file).read_text(encoding="utf-8")
    count = text.count(site.snippet)
    if count != 1:
        raise SystemExit(f"{site.name}: {site.snippet!r} occurs {count} times in {site.file}, not once")
    return text.replace(site.snippet, site.replacement)


def _run(site: Site | None, tests: tuple[str, ...]) -> tuple[str, float, str]:
    """Run ``tests`` on a fresh copy, mutated at ``site`` (None: unmutated).
    Returns the outcome (passed, failed or timed out), the wall time and the
    last line pytest printed."""
    with tempfile.TemporaryDirectory(prefix="qradar-mutant-") as tmp:
        work = Path(tmp)
        _copy(work)
        if site is not None:
            (work / "src" / "qradar" / site.file).write_text(_mutated(site), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *(f"tests/{name}" for name in tests)]
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start, ""
        lines = done.stdout.strip().splitlines()
        return ("passed" if done.returncode == 0 else "failed"), time.perf_counter() - start, \
            (lines[-1] if lines else done.stderr.strip()[-200:])


def main() -> int:
    for site in SITES:
        _mutated(site)  # every snippet is checked before anything runs
    jobs = os.cpu_count() or 1
    start = time.perf_counter()
    control = tuple(sorted({name for site in SITES for name in site.tests}))
    outcome, seconds, last = _run(None, control)
    print(f"unmutated: {outcome} in {seconds:.1f} s ({last})", flush=True)
    if outcome != "passed":
        print("the mapped tests must pass unmutated; no mutant is run")
        return 1
    verdicts = {"failed": "killed", "passed": "SURVIVED", "timed out": "TIMED OUT"}
    tally = {verdict: 0 for verdict in verdicts.values()}
    with ThreadPoolExecutor(jobs) as pool:
        results = pool.map(lambda site: (site, _run(site, site.tests)), SITES)
        for site, (outcome, seconds, last) in results:
            verdict = verdicts[outcome]
            tally[verdict] += 1
            print(f"{verdict:9} {site.name}: {site.file} {site.snippet!r} -> {site.replacement!r} "
                  f"[{', '.join(site.tests)}] {seconds:.1f} s ({last})", flush=True)
    print(", ".join(f"{count} {verdict.lower()}" for verdict, count in tally.items())
          + f"; {len(SITES)} mutants, {jobs} at once, {time.perf_counter() - start:.0f} s wall")
    return 0 if tally["SURVIVED"] == tally["TIMED OUT"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Shared test helpers: random symplectics and random physical states, a
damped oscillator model (and its arrays, for grids); and the Hypothesis
profile every property runs under."""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import expm

from qradar.gaussian import GaussianState, symplectic_form
from qradar.langevin import LinearLangevinModel

# Every property, present or future, draws the same examples on every run;
# each still sets its own max_examples (and deadline, where it needs one).
settings.register_profile("qradar", derandomize=True)
settings.load_profile("qradar")


def random_symplectic(rng: np.random.Generator, n_modes: int, scale: float = 0.6) -> np.ndarray:
    """Random symplectic matrix exp(Omega H) with H symmetric."""
    dim = 2 * n_modes
    h = rng.uniform(-scale, scale, (dim, dim))
    h = 0.5 * (h + h.T)
    return expm(symplectic_form(n_modes) @ h)


def random_physical_two_mode(rng: np.random.Generator, pure_fraction: float = 0.3) -> GaussianState:
    """Williamson-built random physical two-mode state (sometimes pure)."""
    if rng.uniform() < pure_fraction:
        nus = np.full(2, 0.5)
    else:
        nus = 0.5 + rng.exponential(0.7, size=2)
    diag = np.repeat(nus, 2)
    s = random_symplectic(rng, 2)
    cov = s @ np.diag(diag) @ s.T
    return GaussianState(2, np.zeros(4), cov)


def tmsv_cov(r: float) -> np.ndarray:
    c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
    sz = np.diag([1.0, -1.0])
    return 0.5 * np.block([[c2 * np.eye(2), s2 * sz], [s2 * sz, c2 * np.eye(2)]])


def damped(v: float) -> LinearLangevinModel:
    """A damped oscillator rotating at ``v`` whose steady state is (|v| + 1/2) I."""
    return LinearLangevinModel(np.array([[-1.0, v], [-v, -1.0]]), (2.0 * abs(v) + 1.0) * np.eye(2))


def damped_arrays(v: float) -> tuple[np.ndarray, np.ndarray]:
    """The drift and diffusion of :func:`damped`, as a grid builder gives them."""
    model = damped(v)
    return model.drift, model.diffusion


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)

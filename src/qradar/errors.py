"""Exception hierarchy for the toolkit, and the parameter rules below every model.

Every error raised on purpose derives from :class:`QradarError`, so callers
(and the CLI) can separate validation problems from numerical failures.
Finite inputs whose arithmetic leaves float range raise one where it breaks
(a pump drive squared, a Wigner exponent, a covariance determinant), not an
OverflowError, a leaked RuntimeWarning or a NaN result.
A record declares each numeric field's config unit and sign rule once, with
:func:`_param`, and its ``__post_init__`` checks them with :func:`_require_valid`;
a converter grid holds its values to the axis field's rule once, and itself
non-empty and ascending, with :func:`_grid_values`; a function holds each
numeric argument, and a number it derives where that can leave float range,
to its rule with :func:`_valid` (sign None: any finite value), and a count
or a seed to its range with :func:`_integer`.
"""

import dataclasses
import functools
import math
import numbers


class QradarError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QradarError):
    """An input violated a documented invariant; the message names it."""


def _finite(value) -> float | None:
    """A number as a finite float; None for inf, NaN or an integer beyond
    float range (on which ``math.isfinite`` raises OverflowError)."""
    try:
        return float(value) if math.isfinite(value) else None
    except OverflowError:
        return None


def _param(unit: str | None = None, sign: str | None = None, **kwargs):
    """A record field with its config unit suffix (None: no config override)
    and its sign rule ("positive", "non-negative" or None), read by
    :func:`_require_valid` and qradar.config."""
    return dataclasses.field(metadata={"unit": unit, "sign": sign}, **kwargs)


@functools.cache
def _rules(cls) -> tuple[tuple[str, str | None], ...]:
    """(name, sign rule) of each field of ``cls`` declared with :func:`_param`."""
    return tuple((f.name, f.metadata["sign"]) for f in dataclasses.fields(cls) if "sign" in f.metadata)


def _valid(name: str, sign: str | None, value) -> float:
    """``value`` as a float, or :class:`ValidationError` naming ``name`` if it
    is not finite or breaks the sign rule ``sign``."""
    number = _finite(value)
    if number is None:
        raise ValidationError(f"{name} must be finite")
    if sign == "positive" and number <= 0 or sign == "non-negative" and number < 0:
        raise ValidationError(f"{name} must be {sign}")
    return number


def _integer(name: str, value, lo: int, hi: int | None = None) -> None:
    """:class:`ValidationError` naming ``name`` unless ``value`` is an integer
    (a bool is not one) from ``lo`` to ``hi`` (None: of any size)."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and lo <= value and (hi is None or value <= hi)):
        bound = f">= {lo}" if hi is None else f"from {lo} to {hi}"
        raise ValidationError(f"{name} must be an integer {bound}")


def _require_valid(record, values: dict | None = None) -> None:
    """:class:`ValidationError` naming the first declared field of ``record``,
    in declaration order, whose value is not finite (None passes) or breaks
    its sign rule.  ``values`` (field name -> value) checks those values, in
    place of all of ``record``'s own, before they are set."""
    values = vars(record) if values is None else values
    for name, sign in _rules(type(record)):
        value = values.get(name)
        if value is not None:
            _valid(name, sign, value)


def _grid_values(cls, name: str, grid) -> list[float]:
    """A grid for the declared field ``name`` of ``cls``: each value as a
    float, held once to the field's rule; an empty or a descending grid is
    a :class:`ValidationError`.  Every converter grid entry point takes its
    grid through here, so each holds the rules qradar.config applies."""
    sign = dict(_rules(cls))[name]
    values = [_valid(name, sign, value) for value in grid]
    if not values:
        raise ValidationError(f"{name} grid must not be empty")
    if sorted(values) != values:
        raise ValidationError(f"{name} grid must be ascending")
    return values


class PhysicalityError(ValidationError):
    """A covariance matrix violates the uncertainty bound (nu >= 1/2)."""


class DegenerateStateError(QradarError):
    """A covariance matrix is numerically singular where it must not be."""


class UnphysicalChannelError(ValidationError):
    """A Gaussian channel violates the complete-positivity bound."""


class NoSteadyStateError(QradarError):
    """A converter has no steady state, by what was measured: one model's
    drift fails the strict Hurwitz test of its eigenvalues (the message
    quotes the largest real part), or a converter grid's or temperature
    basis's Lyapunov system is singular or its solution is not positive
    definite, so no solution certifies the drift Hurwitz (Lyapunov's
    theorem; a grid leaves such a point out)."""


class StiffnessError(QradarError):
    """A covariance was not computed accurately: a Lyapunov solution misses
    A V + V A^T + D = 0 by more than 1e-9 ||D||_inf (steady states, at one
    temperature or across the temperatures of a threshold search or a
    temperature grid), or a temperature basis covariance V_b has an
    eigenvalue below its rounding, where V(0) > 0 has certified the drift
    Hurwitz, so that the exact V_b is positive semidefinite."""


class ConvergenceError(QradarError):
    """No operating point (delta_eg = 0, no finite root, or a DC residual
    above its gate), a quadrature that did not converge, or a threshold
    search that met a NaN or ran out of iterations."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class ThresholdError(QradarError):
    """Parametric pump at or above the oscillation threshold."""


class NumericalDegeneracyError(QradarError):
    """A discriminant or pivot fell below its documented tolerance."""


class UndefinedQuantityError(QradarError):
    """A closed-form expression is 0/0 for the given inputs (e.g. n_eff), or
    an invariant it needs lies beyond float range (a covariance determinant
    in the entanglement criteria, a line's absorption integral)."""


class ConfigError(QradarError):
    """Scenario configuration is invalid; carries the full list of messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))

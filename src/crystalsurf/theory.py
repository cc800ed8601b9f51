"""Explicitly computable smallness margins and the checks behind them.

For each model there is a closed-form margin delta(x), evaluated at the
initial Wiener amplitude x = |v(0)|_0, with the guarantee that a positive
margin forces exponential contraction |v(t)|_0 <= |v(0)|_0 exp(-delta t).
The margins are

    delta_exp(x) = 2 - e^x (1 + 7x + 6x^2 + x^3)
    delta_adl(x) = 6 - 3 (1-x)^{-4} [1 + 28 r + 120 r^2 + 120 r^3],
                   r = x / (1 - x),  0 <= x < 1.

Both are strictly decreasing with a single positive root; amplitudes below
the root are admissible.  The remaining functions here certify the side
facts the margins rest on: monotone Lyapunov functionals, the Wiener-scale
interpolation inequality, the power-series identities used to resum the
nonlinear bounds, and a term-by-term audit of the exponential margin's
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ADL, EXPONENTIAL, SingularityError
from .spectral import GridSpec, SpectralField, _coeff_norms, to_physical
# Unused here since the interpolation checks take their norms from one
# `_coeff_norms` pass, but the benchmark's span table patches this name.
from .spectral import wiener_norm  # noqa: F401

# Absolute slack granted when checking a trajectory against its decay
# envelope, as a fraction of the initial amplitude.  Shared by the decay
# certification in diagnostics and by the CLI report.
ENVELOPE_SLACK_FACTOR = 1e-6

DEFAULT_ROOT_TOL = 1e-12

# Known-sign anchor points used to bracket the unique positive root.
_ROOT_BRACKET_HI = {EXPONENTIAL: 1.0, ADL: 0.5}


def delta_exp(x: float) -> float:
    """Decay margin of the exponential model at Wiener amplitude x >= 0.

    -inf past float overflow (x above about 709.78, where e^x does not
    fit a double): the IEEE value of the overflowed formula.
    """
    if x < 0:
        raise ValueError(f"delta_exp requires x >= 0, got {x}")
    try:
        growth = math.exp(x)
    except OverflowError:
        return -math.inf
    return 2.0 - growth * (1.0 + x * (7.0 + x * (6.0 + x)))


def delta_adl(x: float) -> float:
    """Decay margin of the adl model at Wiener amplitude 0 <= x < 1."""
    if x < 0:
        raise ValueError(f"delta_adl requires x >= 0, got {x}")
    if x >= 1:
        raise ValueError(f"delta_adl requires x < 1, got {x}")
    r = x / (1.0 - x)
    bracket = 1.0 + r * (28.0 + r * (120.0 + 120.0 * r))
    return 6.0 - 3.0 * bracket / (1.0 - x) ** 4


def delta(kind: str, x: float) -> float:
    if kind == EXPONENTIAL:
        return delta_exp(x)
    if kind == ADL:
        return delta_adl(x)
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class SmallnessReport:
    """Admissibility of an initial amplitude for one model."""

    kind: str
    x: float
    delta: float
    admissible: bool


def smallness_report(kind: str, x: float) -> SmallnessReport:
    """Evaluate the margin at x; adl amplitudes >= 1 are reported, not raised."""
    if kind == ADL and x >= 1:
        return SmallnessReport(kind, x, float("-inf"), False)
    d = delta(kind, x)
    return SmallnessReport(kind, x, d, d > 0)


def threshold_bracket(kind: str, tol: float = DEFAULT_ROOT_TOL) -> tuple[float, float]:
    """Bracket [lo, hi] around the unique root of delta(kind, .), by
    bisection from known-sign anchors: delta(kind, lo) > 0 >= delta(kind, hi).

    The width is at most tol, or one float spacing where tol is below it:
    then lo and hi are adjacent floats.  A tol that small buys no accuracy,
    because within a few floats of the root the rounding of delta can give
    it the wrong sign (adl's float delta changes sign 2-3 floats below its
    exact root)."""
    if not tol > 0:  # NaN too, which would skip the bisection
        raise ValueError("tol must be positive")
    lo, hi = 0.0, _ROOT_BRACKET_HI[kind]
    if not (delta(kind, lo) > 0 > delta(kind, hi)):
        raise RuntimeError("root bracket anchors lost their sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: no float lies between them
            break
        if delta(kind, mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def threshold_root(kind: str, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Unique positive root of the margin, located to bracket width tol."""
    lo, hi = threshold_bracket(kind, tol)
    return 0.5 * (lo + hi)


def decay_envelope(x0: float, delta_value: float, t) -> np.ndarray | float:
    """Certified envelope x0 * exp(-delta * t)."""
    return x0 * np.exp(-delta_value * np.asarray(t, dtype=float))


def lyapunov_quadrature(
    kind: str, grid: GridSpec, samples: np.ndarray
) -> np.floating | np.ndarray:
    """Quadrature of the Lyapunov density, exp(-v) (exp) or (1 + v)^{-2} (adl),
    over collocation samples.  No singularity check: that is lyapunov_l2's.

    Sums over the grid's axes, the last grid.dim of `samples`: one field's
    samples give a float64 scalar, a stack of them an array of one value
    per field, bit for bit each field's own.
    """
    if kind == EXPONENTIAL:
        return grid.cell_volume * np.exp(-samples).sum(axis=grid.axes)
    return grid.cell_volume * ((1.0 + samples) ** -2).sum(axis=grid.axes)


def lyapunov_l1(v: SpectralField) -> float:
    """Integral of exp(-v) by collocation quadrature; equals (2 pi)^d at v = 0.

    Nonincreasing along exponential-model trajectories.
    """
    return float(lyapunov_quadrature(EXPONENTIAL, v.grid, to_physical(v)))


def lyapunov_l2(v: SpectralField) -> float:
    """Integral of (1 + v)^{-2}; requires 1 + v > 0 on the grid.

    Nonincreasing along adl-model trajectories.  min(1 + v) is taken as
    1 + min(v), as the adl guard and the recorder take it: rounding of
    1 + x is monotone in x, so the bits are the same, without a P^d
    temporary.
    """
    s = to_physical(v)
    floor = float(1.0 + s.min())
    if floor <= 0:
        raise SingularityError(
            f"lyapunov_l2 undefined: min(1 + v) = {floor:.3e} on the collocation grid"
        )
    return float(lyapunov_quadrature(ADL, v.grid, s))


def lyapunov(kind: str, v: SpectralField) -> float:
    return lyapunov_l1(v) if kind == EXPONENTIAL else lyapunov_l2(v)


@dataclass(frozen=True)
class InterpolationCheck:
    """One instance of |f|_s <= |f|_0^{1-s/r} |f|_r^{s/r}."""

    s: float
    r: float
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class InterpolationColumn:
    """The instances of |f|_s <= |f|_0^{1-s/r} |f|_r^{s/r} for one (s, r)
    over a stack of fields: entry b of each list is field b's."""

    s: float
    r: float
    lhs: list[float]
    rhs: list[float]
    passed: list[bool]


def interpolation_columns(grid: GridSpec, coeffs: np.ndarray, pairs) -> list[InterpolationColumn]:
    """Check |f|_s <= |f|_0^{1-s/r} |f|_r^{s/r} for every (s, r) in pairs
    and every field of a stack, coeffs of shape (B,) + grid.coeff_shape.

    Every pair must satisfy 0 <= s <= r; that is checked for all of them
    before any norm is computed.  The Wiener norms at every order the pairs
    name, and at 0, come from one `_coeff_norms` pass over the stack, whose
    row b is field b's own norms bit for bit, so entry b is what field b
    alone gives.  The right side |f|_0^{1-θ} |f|_r^θ, θ = s/r, is
    |f|_0 itself at θ = 0 (s = 0 or r = 0) and |f|_r at θ = 1 (s = r):
    x**1.0 is x and x**0.0 is 1.0 exactly, for every float x.  Only for
    0 < θ < 1 is it evaluated, per field as a Python float expression,
    since numpy's power rounds differently from Python's on some inputs.
    Each column's verdicts are one float64 comparison over the stack, the
    same IEEE operations as the per-field Python ones.  The inequality is
    a theorem for every field, so passed=False indicates an implementation
    defect rather than a property of f.  A relative slack of 1e-12 absorbs
    rounding.
    """
    pairs = list(pairs)
    for s, r in pairs:
        if not (0 <= s <= r):
            raise ValueError(f"need 0 <= s <= r, got s={s}, r={r}")
    orders = tuple(sorted({0.0, *(a for pair in pairs for a in pair)}))
    norm = dict(zip(orders, _coeff_norms(grid, coeffs, wiener_orders=orders)[0].T))
    columns = []
    for s, r in pairs:
        lhs = norm[s]
        if s == 0 or s == r:
            rhs = norm[0.0 if s == 0 else r]
        else:
            theta = s / r
            rhs = np.array(
                [a ** (1.0 - theta) * b**theta for a, b in zip(norm[0.0].tolist(), norm[r].tolist())]
            )
        passed = lhs <= rhs * (1.0 + 1e-12)
        columns.append(InterpolationColumn(s, r, lhs.tolist(), rhs.tolist(), passed.tolist()))
    return columns


def interpolation_check(f: SpectralField, s: float, r: float) -> InterpolationCheck:
    """One-field, one-pair case of interpolation_columns."""
    (c,) = interpolation_columns(f.grid, f.coeffs[np.newaxis], [(s, r)])
    return InterpolationCheck(c.s, c.r, c.lhs[0], c.rhs[0], c.passed[0])


# The four resummation identities: series coefficient factors, starting
# order, and closed form.  Each maps sum_{j>=j0} prod(j+2-i, i<m) w^{j-1}
# to a derivative of the geometric series.
def _series_closed_forms(w: float) -> dict[int, float]:
    q = 1.0 - w
    return {
        3: 6.0 / q**4 - 6.0,
        4: 24.0 * w / q**5,
        5: 120.0 * w**2 / q**6,
        6: 720.0 * w**3 / q**7,
    }


def _series_partial_sums(w: float, n: int) -> dict[int, float]:
    starts = {3: 2, 4: 2, 5: 3, 6: 4}
    sums = {}
    for m, j0 in starts.items():
        # (j+2)(j+1)...(j+3-m) = perm(j+2, m), exact in a float below 2^53
        sums[m] = math.fsum(math.perm(j + 2, m) * w ** (j - 1) for j in range(j0, n + 1))
    return sums


def series_identity_check(w: float, n: int) -> dict[int, float]:
    """Residuals of the four falling-factorial resummation identities.

    Partial sums up to order n of sum_j (j+2)(j+1)j w^{j-1} and its three
    higher analogues are compared with their closed forms 6/(1-w)^4 - 6,
    24 w/(1-w)^5, 120 w^2/(1-w)^6 and 720 w^3/(1-w)^7.  Returns residuals
    keyed by the number of falling factors (3, 4, 5, 6), each scaled by
    max(1, |closed form|) so tolerances read uniformly across w.
    """
    if not (0 <= w < 1):
        raise ValueError(f"series_identity_check requires 0 <= w < 1, got {w}")
    if n < 4:
        raise ValueError("need n >= 4 so every identity has at least one term")
    closed = _series_closed_forms(w)
    partial = _series_partial_sums(w, n)
    return {
        m: abs(partial[m] - closed[m]) / max(1.0, abs(closed[m])) for m in (3, 4, 5, 6)
    }


@dataclass(frozen=True)
class CoefficientAudit:
    """Term-by-term rebuild of the exponential margin's series bound."""

    samples: tuple
    max_error: float
    passed: bool


def delta_exp_coefficient_audit(
    n: int = 40, xs=(0.05, 0.1, 0.2), tol: float = 1e-12
) -> CoefficientAudit:
    """Re-sum the per-order nonlinear bounds and compare with 2 - delta_exp.

    The order-j contribution to the exponential model's contraction estimate
    carries the weight (1 + (j-1)(7 + 6(j-2) + (j-2)(j-3))) / (j-1)!.
    Summing x^{j-1} times that weight for j >= 2 and adding the linear
    term's 1 must reproduce e^x (1 + 7x + 6x^2 + x^3) = 2 - delta_exp(x).
    """
    samples = []
    errs = []
    for x in xs:
        terms = [1.0]
        for j in range(2, n + 1):
            weight = 1.0 + (j - 1) * (7.0 + 6.0 * (j - 2) + (j - 2) * (j - 3))
            terms.append(x ** (j - 1) / math.factorial(j - 1) * weight)
        partial = math.fsum(terms)
        target = 2.0 - delta_exp(x)
        err = abs(partial - target)
        samples.append((x, partial, target, err))
        errs.append(err)
    max_error = max(errs)
    return CoefficientAudit(tuple(samples), max_error, max_error <= tol)

"""Right-hand sides of the two surface evolution equations in slope form.

Both models evolve a zero-mean field v on the torus:

    exponential model:   dv/dt = bilaplacian(exp(-v))
    adl model:           dv/dt = bilaplacian((1 + v)^(-3))

Each splits into a stiff linear part -c * bilaplacian(v) (c = 1 for the
exponential model, c = 3 for the adl model) plus a superlinear remainder
that vanishes to second order at v = 0.  The remainder is what the
exponential integrators treat explicitly, so it is computed directly from
the series with the constant and linear terms removed analytically; this
keeps the truncated-at-order-1 remainder identically zero instead of
rounding-noise sized.

Nonlinearity evaluation is pseudo-spectral: sample v on the (padded)
collocation grid, apply the scalar function pointwise, project back onto
the retained modes, then apply the biharmonic multiplier.  The biharmonic
factor annihilates the mean mode, so the result has exactly zero mean.
The stepper's evaluator (`remainder_fn`) reuses one set of sample and
spectrum buffers across calls and is therefore not re-entrant.  Both step
forms evaluate `_superlinear_pointwise`, the adl singularity guard's home,
and `exact_tail_bound` tells the stepper below which state size that
remainder is exactly +0.0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    GridSpec,
    SpectralField,
    _Workspace,
    _coeffs_from_phys,
    _mirror,
    _phys_from_coeffs,
    _plan,
    require_zero_mean,
)
# Unused here, but the benchmark's span table patches these two names.
from .spectral import from_physical, to_physical  # noqa: F401

EXPONENTIAL = "exp"
ADL = "adl"
MODEL_KINDS = (EXPONENTIAL, ADL)

FULL = "full"
TRUNCATED = "truncated"
NONLINEARITY_MODES = (FULL, TRUNCATED)

DEFAULT_TRUNCATION_ORDER = 20

# Highest truncation order N a model takes.  Past j = 177 every exp
# coefficient 1/j! is 0.0 (see _inverse_factorial), so a higher exp order
# computes the same numbers; and every order is one Horner pass per
# evaluation and one coefficient made before the first step, so an order
# such as 10**20 would never start.  The adl series is held to the same
# cap.
MAX_TRUNCATION_ORDER = 177

# Collocation values of 1 + v at or below this count as a blow-up of the
# adl nonlinearity rather than a resolvable state.
ADL_SINGULAR_FLOOR = 1e-8

# Bound on c max|v| on the grid (c the linear coefficient) below which
# both full remainders are exactly +0.0; `exact_tail_bound` divides it by c
# to bound 2 sum|c_half|, the stepper's test.  Below 2^-54 ~ 5.55e-17,
# where the first dropped term x^2/2 is below half an ulp of x, expm1(x)
# and log1p(x) return x itself.  Both remainders are then expm1(-y) + y,
# with y = v for exp and, as log1p(v) == v, y = 3.0 * v for adl, whose
# rounding keeps |y| <= fl(c max|v|) < 2^-54; so each is -y + y = +0.0
# exactly, signed zeros included, and an ETD step is the propagator alone
# (test_models checks the identities on every binade up to each model's
# bound, and c times it for expm1).  2 sum|c_half| bounds max|v| at every
# ETD stage state too, as |propagator| <= 1 and the remainders vanish.
# Rounding: every inverse path (the dense 1D and last-axis products, the
# fused step's matrices, the FFT passes) forms a sample from coefficient
# parts and factors of modulus at most 2, so a computed sample exceeds
# 2 sum|c_half| by at most about (terms per sample) * 2^-53 relative, and
# the stepper's rounded sum falls short of it by as little; the factor 0.9
# leaves 10% for both, which no grid this package can hold comes near.
EXACT_TAIL_ARGUMENT = 0.9 * 2.0**-54


class SingularityError(ArithmeticError):
    """The adl nonlinearity was evaluated at a state with 1 + v near zero.

    Attributes:
        time: simulation time of the failing evaluation, when known.
        step_end: set when the failing evaluation is known only to lie in
            the step from `time` to `step_end`; an ETDRK4 stage state has no
            single time.
    """

    def __init__(
        self, message: str, time: float | None = None, step_end: float | None = None
    ):
        super().__init__(message)
        self.time = time
        self.step_end = step_end


def linear_coefficient(kind: str) -> float:
    """Coefficient c of the stiff linear part -c * bilaplacian(v)."""
    if kind == EXPONENTIAL:
        return 1.0
    if kind == ADL:
        return 3.0
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Model selection: which equation, and full or truncated nonlinearity.

    Attributes:
        kind: "exp" or "adl".
        grid: discretization the right-hand side operates on.
        mode: "full" for the closed-form nonlinearity, "truncated" for the
            Galerkin-regularized partial sum of its Taylor series.
        truncation_order: highest series order N kept in truncated mode.
    """

    kind: str
    grid: GridSpec
    mode: str = FULL
    truncation_order: int = DEFAULT_TRUNCATION_ORDER

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.mode not in NONLINEARITY_MODES:
            raise ValueError(f"mode must be one of {NONLINEARITY_MODES}, got {self.mode!r}")
        if self.mode == TRUNCATED and not 0 <= self.truncation_order <= MAX_TRUNCATION_ORDER:
            raise ValueError(
                f"truncation_order must be >= 0 and <= {MAX_TRUNCATION_ORDER}, "
                f"got {self.truncation_order}"
            )

    @property
    def linear_coefficient(self) -> float:
        return linear_coefficient(self.kind)


def _inverse_factorial(j: int) -> float:
    """1/j! as a float.  Past j = 170, j! overflows a float: there the
    integer quotient rounds 1/j! once, to a subnormal up to j = 177 and to
    0.0 beyond."""
    return 1.0 / math.factorial(j) if j <= 170 else 1 / math.factorial(j)


# Coefficient a_j of x^j in the Taylor series of each nonlinearity:
# exp(x) with x = -v, and (1 + x)^(-3) with x = v.
_SERIES_COEFFICIENT = {
    EXPONENTIAL: _inverse_factorial,
    ADL: lambda j: float((-1) ** j * math.comb(j + 2, j)),
}


@functools.lru_cache(maxsize=256)
def _series_coefficients(kind: str, order: int) -> tuple[float, ...]:
    """(a_0, ..., a_N) of `kind`'s series, computed once per (kind, order)."""
    coefficient = _SERIES_COEFFICIENT[kind]
    return tuple(coefficient(j) for j in range(order + 1))


def _horner(kind: str, x: np.ndarray, order: int, low: int = 0) -> np.ndarray:
    """sum_{j=low}^{N} a_j x^(j - low) for the series coefficients a_j of `kind`."""
    a = _series_coefficients(kind, order)
    acc = np.full_like(x, a[order])
    for j in range(order - 1, low - 1, -1):
        acc = acc * x + a[j]
    return acc


def exp_series_partial_sum(values: np.ndarray, order: int) -> np.ndarray:
    """Partial sum sum_{j=0}^{N} (-v)^j / j! of exp(-v), evaluated pointwise."""
    return _horner(EXPONENTIAL, -np.asarray(values, dtype=float), order)


def adl_series_partial_sum(values: np.ndarray, order: int) -> np.ndarray:
    """Partial sum sum_{j=0}^{N} (-1)^j C(j+2, j) v^j of (1 + v)^(-3)."""
    return _horner(ADL, np.asarray(values, dtype=float), order)


def _superlinear_pointwise(
    cfg: ModelConfig, v_phys: np.ndarray, out: np.ndarray | None = None, time: float | None = None
) -> np.ndarray:
    """Nonlinearity minus its constant and linear terms, evaluated pointwise.

    Returns g(v) - g(0) - g'(0) v where g is the (possibly truncated)
    nonlinearity, with the cancelled low-order terms removed from the series
    analytically rather than numerically.

    The full exponential form writes its result into `out`, a float array
    shaped like v_phys, when given; the other forms always allocate.  The
    full adl form first raises SingularityError, tagged with `time`, when
    min(1 + v) <= ADL_SINGULAR_FLOOR; no other form is singular.
    """
    kind, mode, order = cfg.kind, cfg.mode, cfg.truncation_order
    if mode == FULL:
        if kind == EXPONENTIAL:
            # exp(-v) - 1 + v via expm1 to avoid cancellation at small v
            w = np.negative(v_phys, out=out)
            np.expm1(w, out=w)
            return np.add(w, v_phys, out=w)
        _check_adl_positivity(v_phys, time)
        # (1+v)^(-3) - 1 + 3v = expm1(-3 log1p(v)) + 3v, stable for small v
        return np.expm1(-3.0 * np.log1p(v_phys)) + 3.0 * v_phys
    if order == 0:  # partial sum is 1; the remainder restores +c v
        return v_phys.astype(float) if kind == EXPONENTIAL else 3.0 * v_phys
    if order == 1:
        return np.zeros_like(v_phys, dtype=float)
    x = -v_phys if kind == EXPONENTIAL else v_phys
    return _horner(kind, x, order, low=2) * x * x


def exact_tail_bound(cfg: ModelConfig) -> float:
    """Bound on 2 sum|c_half| below which `_superlinear_pointwise` is exactly
    +0.0 at every sample: EXACT_TAIL_ARGUMENT / c for the full forms (about
    5.0e-17 for exp, 1.67e-17 for adl), 0.0 (never) for the truncated ones,
    whose Horner `* x * x` leaves about x^2."""
    return EXACT_TAIL_ARGUMENT / cfg.linear_coefficient if cfg.mode == FULL else 0.0


def _check_adl_positivity(v_phys: np.ndarray, time: float | None = None) -> None:
    # Rounding of 1 + x is monotone in x, so this is min(1 + v) bit for bit
    # without a P^d temporary.
    floor = float(1.0 + v_phys.min())
    if floor <= ADL_SINGULAR_FLOOR:
        raise SingularityError(
            f"adl nonlinearity singular: min(1 + v) = {floor:.3e} on the collocation grid",
            time=time,
        )


def remainder_fn(cfg: ModelConfig):
    """Raw-array evaluator of the superlinear remainder, for the stepper's
    stage arithmetic (every grid but the dense 1D ones, see stepper).

    Returns a callable mapping the k_d >= 0 half of a Hermitian coefficient
    array, coeffs[..., M:], to the same half of bilaplacian(superlinear
    part), with an optional `time` keyword used to tag singularity errors.

    The evaluator allocates its transform buffers, and the sample buffer
    of the full exponential form, once and reuses them on every call, so
    it is not re-entrant: one evaluator serves one caller at a time.  Each
    returned half is a new array, so results of earlier calls stay valid.
    """
    grid = cfg.grid
    plan = _plan(grid)
    k4 = plan["k4_half"]
    # The dense 1D pair reads no workspace.
    work = _Workspace(grid) if plan["dense_inverse"] is None else None
    point = np.empty(grid.phys_shape)

    def evaluate(coeffs: np.ndarray, time: float | None = None) -> np.ndarray:
        v_phys = _phys_from_coeffs(grid, coeffs, work)
        w = _superlinear_pointwise(cfg, v_phys, out=point, time=time)
        half = _coeffs_from_phys(grid, w, work)
        return np.multiply(half, k4, out=half)

    return evaluate


def nonlinear_remainder(cfg: ModelConfig, v: SpectralField) -> SpectralField:
    """Superlinear part of the right-hand side, rhs + c * bilaplacian(v).

    Vanishes to second order as v -> 0, and is identically zero for the
    exponential model truncated at order 1.
    """
    _require_model_grid(cfg, v)
    require_zero_mean(v)
    half = remainder_fn(cfg)(v.coeffs[..., v.grid.modes_per_axis :])
    return SpectralField(v.grid, _mirror(v.grid, half))


def rhs(cfg: ModelConfig, v: SpectralField) -> SpectralField:
    """Full right-hand side: -c * bilaplacian(v) plus the superlinear remainder."""
    remainder = nonlinear_remainder(cfg, v)
    linear = v.coeffs * (-cfg.linear_coefficient * _plan(v.grid)["k4"])
    return SpectralField(v.grid, linear + remainder.coeffs)


def _require_model_grid(cfg: ModelConfig, v: SpectralField) -> None:
    if v.grid != cfg.grid:
        raise ValueError("field grid does not match the model configuration grid")

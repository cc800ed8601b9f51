"""Exponential time differencing integrators for the stiff slope equations.

The linear part -c |k|^4 is diagonal in Fourier space, so each mode carries
an exact propagator exp(-c |k|^4 dt) and only the superlinear remainder is
treated explicitly.  Two schemes are provided: first-order ETD1 and the
fourth-order ETDRK4 scheme of Cox & Matthews (J. Comput. Phys. 176, 2002),
with coefficients assembled from the phi functions

    phi_0(z) = exp(z)
    phi_m(z) = (phi_{m-1}(z) - 1/(m-1)!) / z .

All z values here are real and <= 0, so the phi functions are evaluated
directly from expm1-based formulas away from the origin and from a Taylor
series near it; the series radius is chosen so the subtracted forms never
lose more than ~1e-13 relative accuracy to cancellation.

The march, and the propagator and phi tables, use only the k_d >= 0 half
of the coefficients (see spectral): the other half of a real field is the
conjugate mirror, and the transforms read only the half anyway.
Each step also flushes coefficient parts below the smallest normal float64
to zero.  The decayed high modes of a long run otherwise become subnormal
floats, which cost x86 microcode assists in every later transform; removing
values below 2.2e-308 changes no reported number.  `integrate` still takes
and returns full-layout SpectralFields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ModelConfig, SingularityError, nonlinear_remainder, remainder_fn
from .spectral import SpectralField, _mirror, _plan, require_zero_mean, wiener_norm

SCHEME_ETD1 = "etd1"
SCHEME_ETDRK4 = "etdrk4"
SCHEMES = (SCHEME_ETD1, SCHEME_ETDRK4)

# Below this |z| the subtracted expm1 formulas for phi_2 and phi_3 start
# losing digits, so a 14-term Taylor polynomial takes over.  At the switch
# point both branches agree to ~1e-15 relative.
_PHI_SERIES_RADIUS = 0.25
_PHI_SERIES_TERMS = 14

# How far past the recommended step the guard lets a run proceed without an
# explicit override.
DT_GUARD_HEADROOM = 10.0

# Smallest normal float64; _Stepper.advance flushes coefficient parts below it.
_TINY = np.finfo(np.float64).tiny


class NonFiniteStateError(ArithmeticError):
    """The state overflowed or went NaN during integrate.

    NaN and inf propagate through every later step, so the state is checked
    only at the sample cadence; `time` is the first sample found non-finite.
    """

    def __init__(self, time: float):
        super().__init__(f"non-finite state at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class StepperConfig:
    """Time integration parameters.

    Attributes:
        dt: fixed step size.
        scheme: "etd1" or "etdrk4".
        t_end: final time; the number of steps is round(t_end / dt).
        sample_every: observer cadence in steps.
        max_steps: refuse runs needing more steps than this.
        allow_large_dt: skip the dt_guard admissibility refusal.
    """

    dt: float
    scheme: str = SCHEME_ETDRK4
    t_end: float = 1.0
    sample_every: int = 1
    max_steps: int = 10_000_000
    allow_large_dt: bool = False

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class TrajectoryState:
    """Snapshot of an integration: time, field, and steps taken so far."""

    t: float
    v: SpectralField
    step_count: int


def _phi_series(z: np.ndarray, m: int) -> np.ndarray:
    """Taylor polynomial sum_{n<_PHI_SERIES_TERMS} z^n / (n+m)! by Horner."""
    acc = np.full_like(z, 1.0 / math.factorial(_PHI_SERIES_TERMS - 1 + m))
    for n in range(_PHI_SERIES_TERMS - 2, -1, -1):
        acc = acc * z + 1.0 / math.factorial(n + m)
    return acc


def phi_functions(z) -> tuple:
    """Evaluate (phi_0, phi_1, phi_2, phi_3) at real z <= 0.

    Accepts a scalar or an ndarray and returns matching shapes (floats for
    scalar input).  Values lie in [0, 1] on the closed negative half line.

    Raises:
        ValueError: if any entry of z is positive.
    """
    za = np.asarray(z, dtype=float)
    if np.any(za > 0):
        raise ValueError("phi_functions is restricted to real z <= 0")
    scalar = za.ndim == 0
    za = np.atleast_1d(za)

    phi0 = np.exp(za)
    phi1 = np.empty_like(za)
    phi2 = np.empty_like(za)
    phi3 = np.empty_like(za)

    small = np.abs(za) < _PHI_SERIES_RADIUS
    if np.any(small):
        zs = za[small]
        phi1[small] = _phi_series(zs, 1)
        phi2[small] = _phi_series(zs, 2)
        phi3[small] = _phi_series(zs, 3)
    if np.any(~small):
        zl = za[~small]
        em = np.expm1(zl)
        phi1[~small] = em / zl
        phi2[~small] = (em - zl) / zl**2
        phi3[~small] = (em - zl - 0.5 * zl**2) / zl**3

    if scalar:
        return float(phi0[0]), float(phi1[0]), float(phi2[0]), float(phi3[0])
    return phi0, phi1, phi2, phi3


class _Stepper:
    """Precomputed per-mode propagator tables plus the advance rule.

    Works on the k_d >= 0 half of the coefficients, coeffs[..., M:], the
    layout `remainder_fn` maps; every table is built on that half of |k|^4,
    elementwise, so it holds the full-layout value of each wavenumber.
    """

    def __init__(self, cfg: ModelConfig, scfg: StepperConfig):
        self.remainder = remainder_fn(cfg)
        k4 = _plan(cfg.grid)["k4"][..., cfg.grid.modes_per_axis :]
        dt = scfg.dt
        z = -cfg.linear_coefficient * k4 * dt
        self.propagator, phi1, phi2, phi3 = phi_functions(z)
        self.scheme = scfg.scheme
        if scfg.scheme == SCHEME_ETD1:
            self.etd1_weight = dt * phi1
        else:
            zh = 0.5 * z
            self.half_propagator, phi1h, _, _ = phi_functions(zh)
            self.stage_weight = 0.5 * dt * phi1h
            self.w_first = dt * (phi1 - 3.0 * phi2 + 4.0 * phi3)
            # The doubled weight of n1 + n2; doubling is exact, so no bit moves.
            self.w_mid2 = 2.0 * (dt * (phi2 - 2.0 * phi3))
            self.w_last = dt * (4.0 * phi3 - phi2)

    def advance(self, c: np.ndarray, t: float) -> np.ndarray:
        """One step of the half coefficient array `c`; returns a new array.

        Real and imaginary parts of the result below the smallest normal
        float64 (about 2.2e-308) are set to zero, so decayed high modes do
        not turn subnormal (see the module docstring).  `c` is not modified.
        Only the evaluation at `c` itself is tagged with the time `t`; the
        ETDRK4 stage states belong to no single time and stay untagged.
        """
        if self.scheme == SCHEME_ETD1:
            out = self.propagator * c + self.etd1_weight * self.remainder(c, time=t)
        else:
            n0 = self.remainder(c, time=t)
            half_c = self.half_propagator * c
            a = half_c + self.stage_weight * n0
            n1 = self.remainder(a)
            b = half_c + self.stage_weight * n1
            n2 = self.remainder(b)
            s = self.half_propagator * a + self.stage_weight * (2.0 * n2 - n0)
            n3 = self.remainder(s)
            out = (
                self.propagator * c
                + self.w_first * n0
                + self.w_mid2 * (n1 + n2)
                + self.w_last * n3
            )
        parts = out.view(np.float64)
        parts[np.abs(parts) < _TINY] = 0.0
        return out


def dt_guard(cfg: ModelConfig, v: SpectralField) -> float:
    """Recommended step size from the nonlinear scale of the current state.

    Uses 0.5 / (c * (1 + |v|_0) * max(1, remainder rate)) where the
    remainder rate is |remainder(v)|_0 / |v|_0.  Always positive; integrate
    refuses steps more than DT_GUARD_HEADROOM times larger unless the
    StepperConfig overrides.
    """
    c = cfg.linear_coefficient
    x = wiener_norm(v, 0.0)
    if x == 0.0:
        rate = 0.0
    else:
        rate = wiener_norm(nonlinear_remainder(cfg, v), 0.0) / x
    return 0.5 / (c * (1.0 + x) * max(1.0, rate))


def integrate(
    cfg: ModelConfig,
    scfg: StepperConfig,
    v0: SpectralField,
    observer=None,
    nonlinearity=None,
) -> TrajectoryState:
    """March v0 to t_end with fixed steps, sampling along the way.

    The observer, when given, is called as observer(t, v) at step 0, then
    every sample_every steps, and at the final step.  The state is checked
    for finiteness at those same steps, observer or not.  Runs are
    deterministic: identical inputs produce bitwise identical trajectories.

    Args:
        nonlinearity: optional override of the remainder evaluator, mapping
            a full (2M+1)^d coefficient array to a coefficient array of the
            same shape; used to force the pure linear flow in verification.

    Raises:
        ValueError: on a non-zero-mean initial state, a step budget beyond
            max_steps, or a dt rejected by the guard.
        SingularityError: propagated from the adl nonlinearity with the
            failing time attached, or the step's start and end times when
            an intermediate stage failed.
        NonFiniteStateError: the state held an inf or NaN at a sample.
    """
    if v0.grid != cfg.grid:
        raise ValueError("initial field grid does not match the model configuration grid")
    require_zero_mean(v0)

    n_steps = scfg.n_steps
    if n_steps > scfg.max_steps:
        raise ValueError(
            f"run needs {n_steps} steps, exceeding max_steps={scfg.max_steps}"
        )
    try:
        recommended = dt_guard(cfg, v0)
    except SingularityError as err:
        if err.time is None:
            err.time = 0.0
        raise
    if not scfg.allow_large_dt and scfg.dt > DT_GUARD_HEADROOM * recommended:
        raise ValueError(
            f"dt={scfg.dt:g} exceeds {DT_GUARD_HEADROOM:g} x recommended {recommended:g}; "
            "reduce dt or set allow_large_dt"
        )

    grid = cfg.grid
    m = grid.modes_per_axis
    worker = _Stepper(cfg, scfg)
    if nonlinearity is not None:
        worker.remainder = lambda c, time=None: nonlinearity(_mirror(grid, c))[..., m:]

    # Pin the mean coefficient to exactly zero; require_zero_mean above has
    # already bounded it by rounding noise.  The march carries only the
    # k_d >= 0 half; full fields are built for the observer and the result.
    c = v0.coeffs.copy()
    c[grid.zero_index] = 0.0
    c = c[..., m:]

    def emit(step_index: int) -> None:
        if not np.isfinite(c).all():
            raise NonFiniteStateError(step_index * scfg.dt)
        if observer is not None:
            observer(step_index * scfg.dt, SpectralField(grid, _mirror(grid, c)))

    emit(0)
    for i in range(1, n_steps + 1):
        t_prev = (i - 1) * scfg.dt
        try:
            c = worker.advance(c, t_prev)
        except SingularityError as err:
            if err.time is None:
                err.time, err.step_end = t_prev, i * scfg.dt
            raise
        if i % scfg.sample_every == 0 or i == n_steps:
            emit(i)
    return TrajectoryState(n_steps * scfg.dt, SpectralField(grid, _mirror(grid, c)), n_steps)

"""Trajectory instrumentation: norm time series, decay certificates, and
convergence studies.

A TimeSeriesRecorder is handed to the integrator as its observer and
collects, per sample, the Wiener norms |v|_0,1,2,4, Sobolev norms at orders
0, 1, 1.9 and 2, the quadrature L2 and max norms, the model's Lyapunov
functional, and the range of 1 + v.  The downstream checks (envelope
certification, Lyapunov monotonicity, fitted decay rates, refinement and
truncation studies) all operate on that record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stepper as _stepper
from .models import ADL, EXPONENTIAL, ModelConfig, rhs
from .spectral import (
    GridSpec,
    SpectralField,
    field_from_modes,
    l2_quadrature,
    linf_norm,
    max_abs,
    sobolev_norm,
    to_physical,
    wiener_norm,
)
from .theory import ENVELOPE_SLACK_FACTOR, decay_envelope, lyapunov_quadrature

WIENER_ORDERS = (0.0, 1.0, 2.0, 4.0)
SOBOLEV_ORDERS = (0.0, 1.0, 1.9, 2.0)

# Rate fitting drops this leading fraction of samples as transient and
# ignores amplitudes below the floor, where rounding noise dominates.
RATE_FIT_TRANSIENT_FRACTION = 0.1
RATE_FIT_FLOOR = 1e-13

# Sample-to-sample relative slack for monotonicity checks.
MONOTONE_REL_SLACK = 1e-10


@dataclass
class TimeSeries:
    """Sampled norms and functionals along one trajectory."""

    kind: str
    times: np.ndarray
    wiener: dict[float, np.ndarray]
    sobolev: dict[float, np.ndarray]
    l2: np.ndarray
    linf: np.ndarray
    lyapunov: np.ndarray
    min_one_plus_v: np.ndarray
    max_one_plus_v: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


class TimeSeriesRecorder:
    """Observer accumulating a TimeSeries; pass its __call__ to integrate."""

    def __init__(self, kind: str):
        if kind not in (EXPONENTIAL, ADL):
            raise ValueError(f"unknown model kind {kind!r}")
        self.kind = kind
        self._times: list[float] = []
        self._wiener: dict[float, list[float]] = {a: [] for a in WIENER_ORDERS}
        self._sobolev: dict[float, list[float]] = {a: [] for a in SOBOLEV_ORDERS}
        self._l2: list[float] = []
        self._linf: list[float] = []
        self._lyapunov: list[float] = []
        self._min1pv: list[float] = []
        self._max1pv: list[float] = []

    def __call__(self, t: float, v: SpectralField) -> None:
        s = to_physical(v)
        self._times.append(t)
        for a in WIENER_ORDERS:
            self._wiener[a].append(wiener_norm(v, a))
        for a in SOBOLEV_ORDERS:
            self._sobolev[a].append(sobolev_norm(v, a))
        self._l2.append(l2_quadrature(v.grid, s))
        self._linf.append(max_abs(s))
        self._lyapunov.append(lyapunov_quadrature(self.kind, v.grid, s))
        self._min1pv.append(float(1.0 + np.min(s)))
        self._max1pv.append(float(1.0 + np.max(s)))

    def finalize(self) -> TimeSeries:
        return TimeSeries(
            kind=self.kind,
            times=np.asarray(self._times),
            wiener={a: np.asarray(vs) for a, vs in self._wiener.items()},
            sobolev={a: np.asarray(vs) for a, vs in self._sobolev.items()},
            l2=np.asarray(self._l2),
            linf=np.asarray(self._linf),
            lyapunov=np.asarray(self._lyapunov),
            min_one_plus_v=np.asarray(self._min1pv),
            max_one_plus_v=np.asarray(self._max1pv),
        )


@dataclass(frozen=True)
class DecayCertificate:
    """Per-sample envelope comparison plus a fitted decay rate.

    fitted_rate is +inf for trajectories that decay past the fitting floor
    immediately (including the zero trajectory).
    """

    x0: float
    delta: float
    slack: float
    times: np.ndarray
    values: np.ndarray
    envelope: np.ndarray
    sample_ok: np.ndarray
    fitted_rate: float
    verdict: bool


def fit_decay_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of -log(values) over the trusted fit window.

    Drops the leading transient fraction of samples and any samples below
    the amplitude floor.  Returns +inf when fewer than two samples remain.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    start = int(math.floor(RATE_FIT_TRANSIENT_FRACTION * len(times)))
    t = times[start:]
    y = values[start:]
    keep = y > RATE_FIT_FLOOR
    if np.count_nonzero(keep) < 2:
        return float("inf")
    slope = np.polyfit(t[keep], np.log(y[keep]), 1)[0]
    return float(-slope)


def certify_decay(
    series: TimeSeries, x0: float, delta_value: float, slack: float | None = None
) -> DecayCertificate:
    """Compare |v(t)|_0 samples against the envelope x0 exp(-delta t).

    Args:
        slack: absolute tolerance per sample; defaults to
            ENVELOPE_SLACK_FACTOR * x0.

    Raises:
        ValueError: for delta_value <= 0, where no decay is certified.
    """
    if delta_value <= 0:
        raise ValueError("certify_decay requires a positive margin delta")
    if slack is None:
        slack = ENVELOPE_SLACK_FACTOR * x0
    values = series.wiener[0.0]
    envelope = decay_envelope(x0, delta_value, series.times)
    sample_ok = values <= envelope + slack
    return DecayCertificate(
        x0=x0,
        delta=delta_value,
        slack=slack,
        times=series.times.copy(),
        values=values.copy(),
        envelope=np.asarray(envelope),
        sample_ok=sample_ok,
        fitted_rate=fit_decay_rate(series.times, values),
        verdict=bool(np.all(sample_ok)),
    )


def check_lyapunov_monotone(series: TimeSeries, rel_slack: float = MONOTONE_REL_SLACK) -> bool:
    """True when the Lyapunov samples never increase beyond relative slack."""
    ly = series.lyapunov
    return bool(np.all(ly[1:] <= ly[:-1] * (1.0 + rel_slack)))


def check_wiener_monotone(series: TimeSeries, rel_slack: float = MONOTONE_REL_SLACK) -> bool:
    """True when |v(t)|_0 never increases sample-to-sample beyond slack."""
    w = series.wiener[0.0]
    return bool(np.all(w[1:] <= w[:-1] * (1.0 + rel_slack) + 1e-300))


def hr_decay_fit(series: TimeSeries, order: float) -> float:
    """Fitted decay rate of the Sobolev norm at the given order."""
    if order not in series.sobolev:
        raise ValueError(
            f"order {order} not recorded; available: {sorted(series.sobolev)}"
        )
    return fit_decay_rate(series.times, series.sobolev[order])


def check_positivity(series: TimeSeries, x0: float) -> bool:
    """Adl positivity record: 1 + v > 0 throughout, and the reconstructed
    surface u = 1/(1 + v) stays above 1/2 whenever x0 < 1.  Vacuously true
    for the exponential model."""
    if series.kind != ADL:
        return True
    ok = bool(np.all(series.min_one_plus_v > 0))
    if ok and x0 < 1:
        # u > 1/2 on the grid is exactly 1 + v < 2
        ok = bool(np.all(series.max_one_plus_v < 2))
    return ok


@dataclass
class RunReport:
    """Everything a single run produces, ready for serialization."""

    config_echo: dict
    x0: float
    delta: float
    admissible: bool
    series: TimeSeries
    certificate: DecayCertificate | None
    lyapunov_monotone: bool
    positivity_ok: bool
    hr_decay_fits: dict[float, float]


@dataclass(frozen=True)
class RefinementResult:
    """Final amplitudes across (modes, points, dt) refinement levels."""

    levels: tuple
    final_wiener0: tuple
    diffs: tuple
    converged: bool


def refinement_study(
    kind: str,
    initial_modes,
    t_end: float,
    levels,
    scheme: str = "etdrk4",
    mode: str = "full",
    truncation_order: int = 20,
    dim: int = 1,
) -> RefinementResult:
    """Re-run the same initial data across refinement levels.

    Args:
        initial_modes: (k, amplitude, phase) list; modes a coarse level
            cannot represent are dropped there, which is the point of the
            non-band-limited variant of this study.
        levels: iterable of (modes_per_axis, phys_points_per_axis, dt)
            with phys_points_per_axis None for the padding default.

    Returns the per-level final |v(T)|_0, successive absolute differences,
    and a verdict that the differences shrink monotonically.
    """
    levels = tuple(levels)
    if len(levels) < 2:
        raise ValueError("refinement_study needs at least two levels")
    finals = []
    for m, p, dt in levels:
        grid = GridSpec.create(dim, m, phys_points_per_axis=p)
        cfg = ModelConfig(kind, grid, mode, truncation_order)
        v0 = field_from_modes(grid, initial_modes, drop_unrepresentable=True)
        scfg = _stepper.StepperConfig(dt=dt, scheme=scheme, t_end=t_end, sample_every=10**9)
        final = _stepper.integrate(cfg, scfg, v0)
        finals.append(wiener_norm(final.v, 0.0))
    diffs = tuple(abs(b - a) for a, b in zip(finals, finals[1:]))
    converged = all(b <= a for a, b in zip(diffs, diffs[1:])) if len(diffs) > 1 else True
    return RefinementResult(levels, tuple(finals), diffs, converged)


@dataclass(frozen=True)
class TruncationResult:
    """Distance between truncated and full right-hand sides versus order."""

    orders: tuple
    errors: tuple
    ratios: tuple

    def mean_tail_ratio(self, min_order: int = 0) -> float:
        """Geometric mean of the per-order error ratios from min_order on."""
        picked = [
            r
            for (n, r) in zip(self.orders[1:], self.ratios)
            if n > min_order and r > 0
        ]
        if not picked:
            return float("nan")
        return float(np.exp(np.mean(np.log(picked))))


def truncation_study(kind: str, v: SpectralField, orders) -> TruncationResult:
    """Max-norm gap between the truncated and full right-hand sides.

    Per order N reports ||rhs(truncated at N) - rhs(full)||_Linf; the
    consecutive ratios expose the tail behaviour (factorial collapse for
    the exponential series, geometric with ratio max|v| for the adl one).
    Ratios are normalized per unit order when the orders are not
    consecutive.
    """
    orders = tuple(int(n) for n in orders)
    if len(orders) < 2 or any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError("orders must be at least two strictly increasing integers")
    if kind == ADL and linf_norm(v) >= 1:
        raise ValueError("adl truncation study requires max|v| < 1 for convergence")
    full_cfg = ModelConfig(kind, v.grid, "full")
    reference = rhs(full_cfg, v)
    errors = []
    for n in orders:
        cfg = ModelConfig(kind, v.grid, "truncated", n)
        errors.append(linf_norm(SpectralField(v.grid, rhs(cfg, v).coeffs - reference.coeffs)))
    ratios = []
    for (n0, e0), (n1, e1) in zip(zip(orders, errors), zip(orders[1:], errors[1:])):
        if e0 <= 0:
            ratios.append(0.0)
        else:
            ratios.append((e1 / e0) ** (1.0 / (n1 - n0)))
    return TruncationResult(orders, tuple(errors), tuple(ratios))

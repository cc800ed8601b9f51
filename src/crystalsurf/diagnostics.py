"""Trajectory instrumentation: norm time series, decay certificates, and
the nonlinearity-truncation study.

A TimeSeriesRecorder is handed to the integrator as its observer and
collects, per sample, the Wiener norms |v|_0,1,2,4, Sobolev norms at orders
0, 1, 1.9 and 2, the quadrature L2 and max norms, the model's Lyapunov
functional, and the range of 1 + v.  It takes them in one pass: one call
of `spectral.norms` for all eight norms, one transform to the collocation
samples, and one min and one max of them, which give both the range of
1 + v and the max norm.  The downstream checks (envelope certification,
Lyapunov monotonicity, positivity, fitted decay rates) all operate on that
record.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .models import ADL, EXPONENTIAL, ModelConfig, rhs
from .spectral import SpectralField, l2_quadrature, linf_norm, norms, to_physical
# Unused here since the recorder takes all its norms from one `norms` call,
# but the benchmark's span table patches these two names, as it patches
# linf_norm and to_physical above.
from .spectral import sobolev_norm, wiener_norm  # noqa: F401
from .theory import ENVELOPE_SLACK_FACTOR, decay_envelope, lyapunov_quadrature

WIENER_ORDERS = (0.0, 1.0, 2.0, 4.0)
SOBOLEV_ORDERS = (0.0, 1.0, 1.9, 2.0)
_ROW_LENGTH = 1 + len(WIENER_ORDERS) + len(SOBOLEV_ORDERS) + 5

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
        # One row of _ROW_LENGTH values per sample: t, the Wiener and Sobolev
        # norms in the order of WIENER_ORDERS and SOBOLEV_ORDERS, then l2,
        # linf, lyapunov, min(1 + v) and max(1 + v).
        self._rows = array("d")

    def __call__(self, t: float, v: SpectralField) -> None:
        s = to_physical(v)
        wiener, sobolev = norms(v, WIENER_ORDERS, SOBOLEV_ORDERS)
        lo, hi = float(s.min()), float(s.max())
        self._rows.extend((
            t,
            *wiener.tolist(),
            *sobolev.tolist(),
            l2_quadrature(v.grid, s),
            abs(max(hi, -lo)),  # max|v| bit for bit; abs() turns -0.0 into 0.0
            lyapunov_quadrature(self.kind, v.grid, s),
            1.0 + lo,
            1.0 + hi,
        ))

    def finalize(self) -> TimeSeries:
        cols = np.array(self._rows).reshape(-1, _ROW_LENGTH).T.copy()
        nw, ns = len(WIENER_ORDERS), len(SOBOLEV_ORDERS)
        wiener, sobolev = cols[1 : 1 + nw], cols[1 + nw : 1 + nw + ns]
        l2, linf, lyapunov, min1pv, max1pv = cols[1 + nw + ns :]
        return TimeSeries(
            kind=self.kind,
            times=cols[0],
            wiener=dict(zip(WIENER_ORDERS, wiener)),
            sobolev=dict(zip(SOBOLEV_ORDERS, sobolev)),
            l2=l2,
            linf=linf,
            lyapunov=lyapunov,
            min_one_plus_v=min1pv,
            max_one_plus_v=max1pv,
        )


@dataclass(frozen=True)
class DecayCertificate:
    """Per-sample envelope comparison plus a fitted decay rate.

    fitted_rate is +inf for trajectories that decay past the fitting floor
    immediately (including the zero trajectory).
    """

    slack: float
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
        slack=slack,
        envelope=envelope,
        sample_ok=sample_ok,
        fitted_rate=fit_decay_rate(series.times, values),
        verdict=bool(np.all(sample_ok)),
    )


def check_lyapunov_monotone(series: TimeSeries, rel_slack: float = MONOTONE_REL_SLACK) -> bool:
    """True when the Lyapunov samples never increase beyond relative slack."""
    ly = series.lyapunov
    return bool(np.all(ly[1:] <= ly[:-1] * (1.0 + rel_slack)))


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
    # Set on sweep members: {"amplitude": a, "scale": a / x0 of the base}.
    sweep_member: dict | None = None


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

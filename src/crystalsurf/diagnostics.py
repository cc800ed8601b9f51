"""Trajectory instrumentation: norm time series, decay certificates, and
the nonlinearity-truncation study.

A TimeSeriesRecorder is handed to the integrator as its observer and
collects, per sample, the Wiener norms |v|_0,1,2,4, Sobolev norms at orders
0, 1, 1.9 and 2, the quadrature L2 and max norms, the model's Lyapunov
functional, and the range of 1 + v.  A call only copies the sample's time
and coefficients into a chunk buffer; once per full chunk, and in
`finalize`, the columns of every buffered sample are taken together: one
`_coeff_norms` pass for all eight norms, one stacked transform to the
collocation samples, and per-sample sums, mins and maxes of them, which
give L2, the Lyapunov functional, the range of 1 + v and the max norm.
Each number is, bit for bit, what the one-field function gives for that
sample.  The downstream checks (envelope certification, Lyapunov
monotonicity, positivity, fitted decay rates) all operate on that record.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .models import ADL, EXPONENTIAL, ModelConfig, rhs
from .spectral import (
    GridSpec,
    SpectralField,
    _coeff_norms,
    _phys_from_coeffs,
    _Workspace,
    l2_quadrature,
    linf_norm,
)
# Unused here since the recorder takes its norms and samples from the chunk
# functions above, but the benchmark's span table patches these names, as
# it patches linf_norm.
from .spectral import sobolev_norm, to_physical, wiener_norm  # noqa: F401
from .theory import ENVELOPE_SLACK_FACTOR, decay_envelope, lyapunov_quadrature

WIENER_ORDERS = (0.0, 1.0, 2.0, 4.0)
SOBOLEV_ORDERS = (0.0, 1.0, 1.9, 2.0)
_ROW_LENGTH = 1 + len(WIENER_ORDERS) + len(SOBOLEV_ORDERS) + 5

# Bytes each of a recorder chunk's largest arrays may take (see
# `_chunk_rows`).  64 KiB keeps every buffer and temporary of a chunk below
# glibc's 128 KiB mmap threshold on 1D grids where one sample fits in it
# (M <= 1023 at padding 2), so recording maps and unmaps no memory there.
_CHUNK_BYTES = 64 * 1024

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


def _chunk_rows(grid: GridSpec) -> int:
    """Samples per recorder chunk on the grid.

    The largest arrays of a chunk are the Wiener weight product,
    len(WIENER_ORDERS) doubles per mode and sample, and the transform
    workspace, about 2 P^d doubles per sample; the chunk holds as many
    samples as keep both within _CHUNK_BYTES, and at least one.  That is
    31 samples at 1D M=32 and one on 2D grids.
    """
    per_sample = max(
        len(WIENER_ORDERS) * math.prod(grid.coeff_shape), 2 * math.prod(grid.phys_shape)
    )
    return max(1, _CHUNK_BYTES // (8 * per_sample))


class TimeSeriesRecorder:
    """Observer accumulating a TimeSeries; pass its __call__ to integrate.

    Every sample must lie on the grid of the first one.  The recorder
    copies each sample, so a caller may reuse or change the field after
    the call.
    """

    def __init__(self, kind: str):
        if kind not in (EXPONENTIAL, ADL):
            raise ValueError(f"unknown model kind {kind!r}")
        self.kind = kind
        # One row of _ROW_LENGTH values per sample: t, the Wiener and Sobolev
        # norms in the order of WIENER_ORDERS and SOBOLEV_ORDERS, then l2,
        # linf, lyapunov, min(1 + v) and max(1 + v).
        self._rows = array("d")
        self._grid: GridSpec | None = None
        self._pending = 0  # samples in the chunk buffers

    def __call__(self, t: float, v: SpectralField) -> None:
        if v.grid is not self._grid and v.grid != self._grid:
            self._start(v.grid)
        i = self._pending
        self._times[i] = t
        self._coeffs[i] = v.coeffs
        self._pending = i + 1
        if self._pending == len(self._times):
            self._flush()

    def _start(self, grid: GridSpec) -> None:
        """Allocate the chunk buffers for the grid of the first sample."""
        if self._grid is not None:
            raise ValueError(
                f"sample on grid {grid}, but the recorder holds samples on {self._grid}"
            )
        rows = _chunk_rows(grid)
        self._grid = grid
        self._times = np.zeros(rows)
        self._coeffs = np.zeros((rows,) + grid.coeff_shape, dtype=np.complex128)
        self._work = _Workspace(grid, (rows,))
        self._block = np.empty((rows, _ROW_LENGTH))

    def _flush(self) -> None:
        """Append the rows of the buffered samples and empty the buffers."""
        n, grid = self._pending, self._grid
        full = n == len(self._times)
        coeffs = self._coeffs[:n]
        wiener, sobolev = _coeff_norms(grid, coeffs, WIENER_ORDERS, SOBOLEV_ORDERS)
        # A partial chunk, left only for finalize, is transformed into fresh
        # arrays, as the workspace holds a full chunk's samples.
        work = self._work if full else None
        s = _phys_from_coeffs(grid, coeffs[..., grid.modes_per_axis :], work)
        axes = tuple(range(1, s.ndim))
        lo, hi = s.min(axis=axes), s.max(axis=axes)
        nw, ns = len(WIENER_ORDERS), len(SOBOLEV_ORDERS)
        block = self._block[:n]
        block[:, 0] = self._times[:n]
        block[:, 1 : 1 + nw] = wiener
        block[:, 1 + nw : 1 + nw + ns] = sobolev
        block[:, -5] = l2_quadrature(grid, s)
        # max|v| bit for bit: Python's max(hi, -lo), and abs() turns -0.0 into 0.0
        block[:, -4] = np.abs(np.where(-lo > hi, -lo, hi))
        block[:, -3] = lyapunov_quadrature(self.kind, grid, s)
        block[:, -2] = 1.0 + lo
        block[:, -1] = 1.0 + hi
        self._rows.frombytes(memoryview(block).cast("B"))
        self._pending = 0

    def finalize(self) -> TimeSeries:
        """The series of every sample so far; recording may go on after it."""
        if self._pending:
            self._flush()
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

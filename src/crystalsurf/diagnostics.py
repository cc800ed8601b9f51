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
The recorder keeps each chunk's columns as the table they make, one row
per sample in SERIES_COLUMNS order, and `finalize` concatenates the tables
into the series' one table.  Each number is, bit for bit, what the
one-field function gives for that sample.  The downstream checks
(envelope certification, Lyapunov monotonicity, positivity, fitted decay
rates) all operate on that record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import ADL, EXPONENTIAL, FULL, TRUNCATED, ModelConfig, rhs
from .spectral import (
    GridSpec,
    SpectralField,
    _coeff_norms,
    _phys_from_coeffs,
    _stack_rows,
    extremes,
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

# The series columns, in the order of the recorder's rows, of
# TimeSeries.table and of the written files.  A norm's column is named
# by its order with "_" for the point: wiener_1 is |v|_{A^1}, h1_9 the
# Sobolev norm of order 1.9.
SERIES_COLUMNS = (
    "t",
    *(f"wiener_{a:g}".replace(".", "_") for a in WIENER_ORDERS),
    "l2",
    *(f"h{a:g}".replace(".", "_") for a in SOBOLEV_ORDERS),
    *("linf", "lyapunov", "min_one_plus_v", "max_one_plus_v"),
)

# Rate fitting drops this leading fraction of samples as transient and
# ignores amplitudes below the floor, where rounding noise dominates.
RATE_FIT_TRANSIENT_FRACTION = 0.1
RATE_FIT_FLOOR = 1e-13

# Sample-to-sample relative slack for monotonicity checks.
MONOTONE_REL_SLACK = 1e-10


@dataclass(init=False)
class TimeSeries:
    """Sampled norms and functionals along one trajectory.

    `table` holds one row per sample, its columns in SERIES_COLUMNS order,
    column-major so that each column is a contiguous float64 array.  The
    attributes `__init__` names (times, wiener[a], l2 and the rest) are
    views of those columns, so a value written through one shows in
    `table` and in the files.

    A series may also be given column by column, by those names:
    `TimeSeries(kind, times=t, wiener={0.0: w}, ...)` writes each one into
    a table of NaN, and a norm dict keeps only the orders it was given.
    """

    kind: str
    table: np.ndarray

    def __init__(self, kind: str, table: np.ndarray | None = None, **columns) -> None:
        if table is None:
            table = np.full((len(columns["times"]), len(SERIES_COLUMNS)), np.nan)
        table = np.asfortranarray(table, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(SERIES_COLUMNS):
            raise ValueError(
                f"series table has shape {table.shape}; SERIES_COLUMNS names "
                f"{len(SERIES_COLUMNS)} columns"
            )
        self.kind, self.table = kind, table
        # zip stops at the end of its orders, so it takes one column per order.
        cols = iter(table.T)
        self.times = next(cols)
        self.wiener = dict(zip(WIENER_ORDERS, cols))
        self.l2 = next(cols)
        self.sobolev = dict(zip(SOBOLEV_ORDERS, cols))
        self.linf, self.lyapunov, self.min_one_plus_v, self.max_one_plus_v = cols
        for name, given in columns.items():
            view = getattr(self, name)
            if isinstance(view, dict):
                for a, values in given.items():
                    view[a][:] = values
                setattr(self, name, {a: view[a] for a in given})
            else:
                view[:] = given

    def __len__(self) -> int:
        return len(self.table)


def _chunk_rows(grid: GridSpec) -> int:
    """Samples per recorder chunk on the grid.

    The largest arrays of a chunk are the Wiener weight product,
    len(WIENER_ORDERS) doubles per mode and sample, and the stacked
    transform's arrays, about 2 P^d doubles per sample; the chunk holds as
    many samples as keep both within the 64 KiB of `spectral._stack_rows`,
    and at least one: 31 at 1D M=32, one on 2D grids.  Up to 1D M=1023 at
    padding 2 every chunk array then stays below glibc's 128 KiB mmap
    threshold, so recording maps and unmaps no memory there.
    """
    per_sample = max(
        len(WIENER_ORDERS) * math.prod(grid.coeff_shape), 2 * math.prod(grid.phys_shape)
    )
    return _stack_rows(8 * per_sample, 1)


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
        # One table per flushed chunk, one row per sample, its columns those
        # of SERIES_COLUMNS.  The empty first table lets a recorder without
        # samples finalize.
        self._tables = [np.empty((0, len(SERIES_COLUMNS)))]
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

    def _flush(self) -> None:
        """Append the table of the buffered samples and empty the buffers."""
        n, grid = self._pending, self._grid
        coeffs = self._coeffs[:n]
        wiener, sobolev = _coeff_norms(grid, coeffs, WIENER_ORDERS, SOBOLEV_ORDERS)
        s = _phys_from_coeffs(grid, coeffs[..., grid.modes_per_axis :])
        lo, hi, linf = extremes(grid, s)
        l2, lyapunov = l2_quadrature(grid, s), lyapunov_quadrature(self.kind, grid, s)
        table = (self._times[:n], wiener, l2, sobolev, linf, lyapunov, 1.0 + lo, 1.0 + hi)
        self._tables.append(np.column_stack(table))
        self._pending = 0

    def finalize(self) -> TimeSeries:
        """The series of every sample so far; recording may go on after it."""
        if self._pending:
            self._flush()
        return TimeSeries(self.kind, np.concatenate(self._tables))


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


def check_lyapunov_monotone(series: TimeSeries) -> bool:
    """True when no Lyapunov sample exceeds its predecessor by more than
    MONOTONE_REL_SLACK relative."""
    ly = series.lyapunov
    return bool(np.all(ly[1:] <= ly[:-1] * (1.0 + MONOTONE_REL_SLACK)))


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
    full_cfg = ModelConfig(kind, v.grid, FULL)
    reference = rhs(full_cfg, v)
    errors = []
    for n in orders:
        cfg = ModelConfig(kind, v.grid, TRUNCATED, n)
        errors.append(linf_norm(SpectralField(v.grid, rhs(cfg, v).coeffs - reference.coeffs)))
    ratios = []
    for (n0, e0), (n1, e1) in zip(zip(orders, errors), zip(orders[1:], errors[1:])):
        if e0 <= 0:
            ratios.append(0.0)
        else:
            ratios.append((e1 / e0) ** (1.0 / (n1 - n0)))
    return TruncationResult(orders, tuple(errors), tuple(ratios))

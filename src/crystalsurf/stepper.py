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
series near it, the exponential series of `models._horner` started at its
m-th coefficient; the series radius is chosen so the subtracted forms never
lose more than ~1e-13 relative accuracy to cancellation.

The march, and the propagator and phi tables, use only the k_d >= 0 half
of the coefficients (see spectral): the other half of a real field is the
conjugate mirror, and the transforms read only the half anyway.
Each step also flushes coefficient parts below the smallest normal float64
to zero.  The decayed high modes of a long run otherwise become subnormal
floats, which cost x86 microcode assists in every later transform; removing
values below 2.2e-308 changes no reported number.  `integrate` still takes
and returns full-layout SpectralFields.

Both schemes are written once, in `_etd_step`.  On 1D grids small enough
for the dense transform pair (P at most spectral._DENSE_MAX_POINTS), and
unless `integrate` is given a `nonlinearity` override, the step is fused:
`_fused_matrices` runs `_etd_step` on per-mode multipliers to fold the
transforms, the k^4 multiplier and the ETD weights of each stage into one
cached real matrix.  An ETDRK4 step is then five matrix-vector products and
four pointwise evaluations (ETD1: two and one), in place of about fifty
numpy calls on (M+1)-element arrays.  2D grids, larger 1D grids and
overrides run `_etd_step` on the half.  The fused step sums in another
order, so its results differ from the stage form's by rounding only.
The stepper does not know the model: both forms evaluate the remainder by
`models._superlinear_pointwise`, which holds the adl singularity guard,
and take |k|^4 of the half from `spectral._plan`'s "k4_half".

Exact linear tail.  The solutions decay exponentially, and a long run
spends most of its steps near rounding noise.  Once 2 sum|c_half|, which
bounds max|v| on the grid, falls below `models.exact_tail_bound` (about
5.0e-17 for full exp and 1.67e-17 for full adl; the proof is at
`models.EXACT_TAIL_ARGUMENT`), the full remainder is exactly +0.0 at every
sample, stage states included, so each step is `propagator * c` bit for
bit.  The bound is tested at step 0 and after each sample, from the same
sum of |c| that checks the sample for finiteness, and not before every
step; the state cannot leave the tail, so the test stops at its first hit.
`integrate` then marches the remaining samples in blocks of as many full
arrays as fit in 64 KiB (`spectral._stack_rows`: 63 at 1D M=32, one at 2D
M=32), one `_Stepper.tail` call, one flush and one `_mirror` per block.
The tail multiplies float64 views by a stack of propagator rows (64 KiB, at
least three rows; 124 at 1D M=32, three at 2D M=32): at `sample_every` 1 a
block is the prefix products of the stack, one `np.multiply.accumulate`; at
longer cadences each sample is one `np.multiply.reduce` per piece of as
many steps as the stack has rows.  Both multiply in step order, so the
observer sees the same steps and the same bits as without the tail.  Tail
samples are not checked for finiteness: each is a checked finite state
times propagators of modulus at most 1.  Truncated models and
`nonlinearity` overrides never take the tail.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .models import (
    EXPONENTIAL,
    ModelConfig,
    SingularityError,
    _horner,
    _require_model_grid,
    _superlinear_pointwise,
    exact_tail_bound,
    nonlinear_remainder,
    remainder_fn,
)
from .spectral import GridSpec, SpectralField, _mirror, _plan, _stack_rows
from .spectral import require_zero_mean, wiener_norm

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
    only at pre-tail samples (a tail state cannot turn non-finite); `time`
    is the first sample found non-finite.
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
        t_end: final time; the run takes round(t_end / dt) steps, and a
            t_end that is not that whole number of steps of dt (within a
            relative 1e-9) is refused here.
        sample_every: observer cadence in steps.
        max_steps: the largest number of steps a run may take; a config
            whose t_end / dt is not finite or rounds past it is refused
            here, so a run or sweep refuses it before any step.
        allow_large_dt: skip the dt_guard admissibility refusal.
    """

    dt: float
    scheme: str = SCHEME_ETDRK4
    t_end: float = 1.0
    sample_every: int = 1
    max_steps: int = 10_000_000
    allow_large_dt: bool = False

    def __post_init__(self) -> None:
        if not self.dt > 0:  # NaN too
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.t_end >= 0:
            raise ValueError("t_end must be >= 0")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and round(steps) <= self.max_steps):
            raise ValueError(f"run needs {steps:.15g} steps, exceeding max_steps={self.max_steps}")
        # The run takes round(t_end / dt) fixed steps, so any other t_end
        # would silently end it early or late; 1e-9 absorbs the rounding of
        # decimal inputs such as 5.0 / 1e-4.
        if not math.isclose(round(steps) * self.dt, self.t_end, rel_tol=1e-9):
            raise ValueError(
                f"t_end {self.t_end!r} is not a whole number of steps of dt = {self.dt!r}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class TrajectoryState:
    """Snapshot of an integration: time, field, and steps taken so far."""

    t: float
    v: SpectralField
    step_count: int


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
        # phi_m(z) = sum_n z^n / (n+m)!, the exponential series from a_m on
        zs = za[small]
        for m, phi in ((1, phi1), (2, phi2), (3, phi3)):
            phi[small] = _horner(EXPONENTIAL, zs, _PHI_SERIES_TERMS - 1 + m, low=m)
    if np.any(~small):
        zl = za[~small]
        em = np.expm1(zl)
        phi1[~small] = em / zl
        phi2[~small] = (em - zl) / zl**2
        phi3[~small] = (em - zl - 0.5 * zl**2) / zl**3

    if scalar:
        return float(phi0[0]), float(phi1[0]), float(phi2[0]), float(phi3[0])
    return phi0, phi1, phi2, phi3


def _etd_tables(grid: GridSpec, linear_coefficient: float, dt: float, scheme: str) -> dict:
    """Per-mode propagator and ETD weight tables of one step, by name.

    Every table is built on the k_d >= 0 half of |k|^4, coeffs[..., M:],
    elementwise, so it holds the full-layout value of each wavenumber.
    Only `_etd_step` reads them.
    """
    z = -linear_coefficient * _plan(grid)["k4_half"] * dt
    propagator, phi1, phi2, phi3 = phi_functions(z)
    if scheme == SCHEME_ETD1:
        return {"propagator": propagator, "etd1_weight": dt * phi1}
    half_propagator, phi1h, _, _ = phi_functions(0.5 * z)
    return {
        "propagator": propagator,
        "half_propagator": half_propagator,
        "stage_weight": 0.5 * dt * phi1h,
        "w_first": dt * (phi1 - 3.0 * phi2 + 4.0 * phi3),
        # The doubled weight of n1 + n2; doubling is exact, so no bit moves.
        "w_mid2": 2.0 * (dt * (phi2 - 2.0 * phi3)),
        "w_last": dt * (4.0 * phi3 - phi2),
    }


def _etd_step(tables: dict, c: np.ndarray, remainder, t: float | None) -> np.ndarray:
    """One ETD1 or ETDRK4 step of `c` with the `_etd_tables` of its scheme.

    `remainder(state, time=None)` evaluates a stage state's remainder.  Only
    the first evaluation, at `c` itself, is tagged with the time `t`; the
    ETDRK4 stage states belong to no single time.
    """
    if "etd1_weight" in tables:
        return tables["propagator"] * c + tables["etd1_weight"] * remainder(c, time=t)
    half_propagator, stage_weight = tables["half_propagator"], tables["stage_weight"]
    n0 = remainder(c, time=t)
    half_c = half_propagator * c
    a = half_c + stage_weight * n0
    n1 = remainder(a)
    b = half_c + stage_weight * n1
    n2 = remainder(b)
    s = half_propagator * a + stage_weight * (2.0 * n2 - n0)
    n3 = remainder(s)
    return (
        tables["propagator"] * c
        + tables["w_first"] * n0
        + tables["w_mid2"] * (n1 + n2)
        + tables["w_last"] * n3
    )


# The fused step's float64 vector x: the half c (2(M+1) reals) and the P
# pointwise samples g_i of each remainder, as [g1 | c | g0 | g2 | g3], by row
# of the multipliers [c, g0, g1, g2, g3]; every state reads one slice of x.
_X_LAYOUT = (2, 0, 1, 3, 4)


@functools.lru_cache(maxsize=8)
def _fused_matrices(
    grid: GridSpec, linear_coefficient: float, dt: float, scheme: str
) -> tuple[int, slice, tuple[tuple, ...]]:
    """The fused 1D step: the length of x, the slice of x that holds c, and
    per remainder evaluation a read-only matrix with the slice of x it
    reads and the slot of x its pointwise samples fill; last, the new
    half's matrix with the slice it reads.  The slices are the only
    statement of x's layout (`_X_LAYOUT`); a stepper takes views by them.

    With Inv (P x 2(M+1)) and Fwd (2(M+1) x P) the dense pair, the
    remainder of a state u is K Fwd g(Inv u), K the "k4_half" diagonal and
    g the pointwise `_superlinear_pointwise`.  Every ETD table is real and per
    mode, so each state and the new half are D(f_c) c + sum_i D(f_i) K Fwd g_i,
    D(f) scaling both parts of each mode by f.  `_etd_step`, run on
    multipliers over the rows [c, g0, g1, g2, g3], with c the unit row 0
    and the i-th remainder the unit row i+1, gives every f.  A state's
    matrix holds Inv D(f_c) and B(f_i) = Inv D(f_i) K Fwd, the new half's
    D(f_c) and D(f_i) K Fwd, over the blocks of x from the first nonzero
    row of f to its last.  B(f) is circulant, B(f)[j, l] =
    B(f)[(j - l) mod P, 0], so it is copied from a strided view of its
    first column.  The build has no matrix-matrix product, whose bits would
    depend on the BLAS thread count.  The step's products stay on one
    thread: its largest matrix holds 184k entries (M=95, P=192), and
    OpenBLAS first ran a matrix-vector product on a second thread past
    about 400k (see CHANGES.md).  CI compares 1D runs on one thread with
    the default.

    The matrices are views of one block.  At 1D M=32 it is about 1 MB,
    above glibc's mmap threshold, so it is mapped apart from the heap; the
    cache keeps it mapped after a march, because unmapping a block that
    large raises the threshold and changes how every later allocation of
    the process faults in.  An entry is about 3 MB at the largest dense grid.
    """
    plan = _plan(grid)
    inverse, forward = plan["dense_inverse"], plan["dense_forward"]
    k4 = plan["k4_half"]
    p, n = inverse.shape
    width = [n, p, p, p, p]
    ends = list(itertools.accumulate(width[row] for row in _X_LAYOUT))
    at = {row: slice(end - width[row], end) for row, end in zip(_X_LAYOUT, ends)}
    unit = np.eye(5)[:, :, None].repeat(grid.modes_per_axis + 1, axis=2)
    states = []

    def remainder(state, time=None):
        states.append(state)
        return unit[len(states)]

    def reads(f):  # the rows whose x blocks f's matrix reads, in x order
        used = [_X_LAYOUT.index(row) for row in np.flatnonzero(f.any(axis=1))]
        return _X_LAYOUT[min(used) : max(used) + 1]

    new_half = _etd_step(_etd_tables(grid, linear_coefficient, dt, scheme), unit[0], remainder, None)
    # (multipliers, the slot the i-th remainder's samples fill, its rows read)
    combos = [(f, at[i], reads(f)) for i, f in enumerate(states, 1)]
    combos.append((new_half, None, reads(new_half)))
    shapes = [(n if fill is None else p, sum(width[row] for row in rows)) for _, fill, rows in combos]
    block = np.zeros(sum(rows * cols for rows, cols in shapes))
    layout, start = [], 0
    for (f, fill, read), (rows, cols) in zip(combos, shapes):
        matrix = block[start : start + rows * cols].reshape(rows, cols)
        start += rows * cols
        col = 0
        for row in read:
            out, col = matrix[:, col : col + width[row]], col + width[row]
            w = np.repeat(f[0] if row == 0 else f[row] * k4, 2)  # on the float64 view
            if row == 0 and fill is not None:  # Inv D(f_c)
                np.multiply(inverse, w, out=out)
            elif row == 0:  # D(f_c)
                out[np.arange(n), np.arange(n)] = w
            elif fill is not None:  # B(f_i): out[j, l] = column[(j - l) % p], from a view
                column = inverse @ (w * forward[:, 0])
                out[...] = sliding_window_view(np.concatenate([column[::-1], column[:0:-1]]), p)[::-1]
            else:  # D(f_i) K Fwd
                np.multiply(w[:, None], forward, out=out)
        matrix.flags.writeable = False
        span = (matrix, slice(at[read[0]].start, at[read[-1]].stop))
        layout.append(span if fill is None else (*span, fill))
    return ends[-1], at[0], tuple(layout)


class _Stepper:
    """`_etd_step` on the k_d >= 0 half of the coefficients, coeffs[..., M:].

    Two forms, chosen by the grid and `remainder` alone.  On 1D grids where
    `_plan` holds the dense transform pair, with no `remainder` given, the
    step is fused: the `_fused_matrices` act on the float64 vector x,
    which the stepper allocates at the length they give and reuses, so it
    serves one march at a time; its views of x are at the slices they
    give, and it places no block itself.  Elsewhere (2D grids, larger 1D
    grids, and a `remainder` given, as `integrate` passes its override)
    `_etd_step` runs on the half with the `_etd_tables`, through
    `remainder` or the model's `remainder_fn`.
    Both forms keep the propagator for `tail`, which a `remainder` given
    turns off (`tail_bound` 0.0).
    """

    def __init__(self, cfg: ModelConfig, scfg: StepperConfig, remainder=None):
        key = (cfg.grid, cfg.linear_coefficient, scfg.dt, scfg.scheme)
        self.fused = remainder is None and _plan(cfg.grid)["dense_inverse"] is not None
        self.tail_bound = exact_tail_bound(cfg) if remainder is None else 0.0
        tables = _etd_tables(*key)
        self.propagator = tables["propagator"]
        self._stack = None
        if not self.fused:
            self.tables = tables
            self.remainder = remainder_fn(cfg) if remainder is None else remainder
            return
        size, c_at, (*stages, (self._final, final_at)) = _fused_matrices(*key)
        x = np.zeros(size)
        self._c_view = x[c_at].view(np.complex128)
        # (matrix, its input view of x, the slot g_i its pointwise values fill)
        self._stages = tuple((m, x[r], x[f]) for m, r, f in stages)
        self._v = np.empty_like(self._stages[0][2])
        self._cfg = cfg
        self._final_in = x[final_at]

    def _fused_step(self, c: np.ndarray, t: float) -> np.ndarray:
        """One fused step of `c`, before the flush; the result is a new array."""
        self._c_view[...] = c
        time = t  # the first evaluation is at c itself (see _etd_step)
        for matrix, state, slot in self._stages:
            v = np.dot(matrix, state, out=self._v)
            w = _superlinear_pointwise(self._cfg, v, out=slot, time=time)
            if w is not slot:
                slot[...] = w
            time = None
        return np.dot(self._final, self._final_in).view(np.complex128)

    def advance(self, c: np.ndarray, t: float) -> np.ndarray:
        """One step of the half coefficient array `c`; returns a new array.

        Real and imaginary parts of the result below the smallest normal
        float64 (about 2.2e-308) are set to zero, so decayed high modes do
        not turn subnormal (see the module docstring).  `c` is not modified.
        """
        if self.fused:
            out = self._fused_step(c, t)
        else:
            out = _etd_step(self.tables, c, self.remainder, t)
        return _flush(out)

    def check_sample(self, c: np.ndarray, time: float) -> bool:
        """Whether every step from the sampled state `c` on is `propagator * c`
        exactly (see models.exact_tail_bound).

        Raises NonFiniteStateError at `time` when `c` holds an inf or NaN.
        One sum of |c| serves both tests: `np.isfinite` runs only when that
        sum is not finite, so a finite state whose sum overflows is neither
        reported nor in the tail.
        """
        level = 2.0 * np.abs(c).sum()
        if level < self.tail_bound:
            return True
        if not np.isfinite(level) and not np.isfinite(c).all():
            raise NonFiniteStateError(time)
        return False

    def tail(self, c: np.ndarray, steps) -> np.ndarray:
        """The states after each count of `steps` (each >= 1) exact-tail steps,
        one after the other from `c`, as a stack (len(steps),) + c.shape:
        bit for bit the states of as many `advance` calls from a state below
        the bound.  Returns a new array and leaves `c` alone.

        Runs on float64 views, each part times the propagator of its mode,
        in pieces of at most as many steps as the stack (`_tail_stack`) has
        rows; the first step of a piece is one product into row 0.  With
        one step per count the rows of the result are the prefix products
        of a piece, one `np.multiply.accumulate`; otherwise each count is
        one `np.multiply.reduce` per piece into its row.  Both multiply the
        rows in order, so each step rounds as `advance` does; a float64
        product differs from the complex-by-real one only in the sign of a
        zero part, which the flush sets to +0.0.  |propagator| <= 1 and
        rounding is monotone, so a part below the smallest normal stays
        below it and one flush of the result zeroes what each step's flush
        would have.

        Each form wins the cadence it serves, with the same bits (timeit,
        best of 7, three alternations, on 63-sample blocks at 1D M=32 and
        one 2D M=32 sample).  At `sample_every` 1 the prefix products took
        26-28 us, per-sample reduces 151-159 us.  At 50 the reduces took
        402-406 us, one accumulate over every step plus a pick of the
        sample rows 1428-1473 us; in 2D at 5, 36-37 us against 207-209 us.
        The benchmark's sweep16 samples every step, and so takes the first
        form; ref1d (every 50 steps) and surface2d (every 5) take the second.
        """
        stack = self._tail_stack()
        out = np.empty((len(steps),) + stack.shape[1:])
        state = c.view(np.float64)
        if len(steps) == sum(steps):  # one step per row: prefix products
            for at in range(0, len(out), len(stack)):
                rows = out[at : at + len(stack)]
                np.multiply(state, stack[1], out=stack[0])
                np.multiply.accumulate(stack[: len(rows)], axis=0, out=rows)
                state = rows[-1]
        else:
            for row, n in zip(out, steps):
                while n:
                    k = min(n, len(stack))
                    np.multiply(state, stack[1], out=stack[0])
                    np.multiply.reduce(stack[:k], axis=0, out=row)
                    state, n = row, n - k
        return _flush(out.view(np.complex128))

    def _tail_stack(self) -> np.ndarray:
        """The float64 stack of `tail`, made on its first call: row 0 the
        state, rows 1.. the propagator repeated per real and imaginary part;
        as many rows as `spectral._stack_rows` fits in 64 KiB (124 at 1D
        M=32), and at least three: the three rows of a 2D half at M=26..36
        take 64-128 KiB, and its two-step pieces ran slower than `advance`."""
        if self._stack is None:
            row = np.repeat(self.propagator, 2, axis=-1)
            rows = _stack_rows(row.nbytes, 3)
            self._stack = np.empty((rows,) + row.shape)
            self._stack[1:] = row
        return self._stack


def _flush(out: np.ndarray) -> np.ndarray:
    """Set real and imaginary parts of `out` below _TINY to +0.0, in place."""
    parts = out.view(np.float64)
    parts[np.abs(parts) < _TINY] = 0.0
    return out


def dt_guard(cfg: ModelConfig, v: SpectralField) -> float:
    """Recommended step size from the nonlinear scale of the current state.

    Uses 0.5 / (c * (1 + |v|_0) * max(1, remainder rate)) where the
    remainder rate is |remainder(v)|_0 / |v|_0.  Always positive; integrate
    refuses steps more than DT_GUARD_HEADROOM times larger unless the
    StepperConfig overrides.

    Its `nonlinear_remainder` call builds and frees a remainder workspace
    (0.34 MB at 2D M=32).  That free raises glibc's mmap and trim
    thresholds before the march, which spares a process's first 2D
    trajectory thousands of minor page faults: a replacement of this
    evaluation (ROADMAP item 3A) must keep that free, or an equivalent, and
    pass tests/test_stepper.py::TestColdRunPageFaults.
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
    for finiteness at pre-tail samples, observer or not.  Runs are
    deterministic: identical inputs produce bitwise identical trajectories.
    Once the state is below the exact-tail bound at a sample (see the
    module docstring), the following samples are marched in blocks, one
    `_Stepper.tail` call per block; the samples, their times and their
    bits are those of the step-by-step march.

    Args:
        nonlinearity: optional override of the remainder evaluator, mapping
            a full (2M+1)^d coefficient array to a coefficient array of the
            same shape; a run with one takes the stage form.

    Raises:
        ValueError: on a non-zero-mean initial state or a dt rejected by
            the guard.  A step count beyond max_steps, and a t_end that is
            not a whole number of steps of dt, are refused earlier, by
            StepperConfig.
        SingularityError: propagated from the adl nonlinearity with the
            failing time attached, or the step's start and end times when
            an intermediate stage failed.
        NonFiniteStateError: the state held an inf or NaN at a pre-tail
            sample.
    """
    _require_model_grid(cfg, v0)
    require_zero_mean(v0)

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
    remainder = None
    if nonlinearity is not None:

        def remainder(c, time=None):
            return nonlinearity(_mirror(grid, c))[..., m:]

    worker = _Stepper(cfg, scfg, remainder)

    # Pin the mean coefficient to exactly zero; require_zero_mean above has
    # already bounded it by rounding noise.  The march carries only the
    # k_d >= 0 half; full fields are built for the observer and the result.
    c = v0.coeffs.copy()
    c[grid.zero_index] = 0.0
    c = c[..., m:]

    dt, every, n_steps = scfg.dt, scfg.sample_every, scfg.n_steps
    # A pre-tail sample is checked for finiteness and for the tail at once;
    # the tail is exact from any state below the bound, so testing for it at
    # samples only moves no bit, and the state only shrinks in it, so the
    # test stops at its first hit.
    in_tail = worker.check_sample(c, 0.0)
    if observer is not None:
        observer(0.0, SpectralField(grid, _mirror(grid, c)))
    i = 0
    while i < n_steps and not in_tail:
        t_prev, i = i * dt, i + 1
        try:
            c = worker.advance(c, t_prev)
        except SingularityError as err:
            if err.time is None:
                err.time, err.step_end = t_prev, i * dt
            raise
        if i % every == 0 or i == n_steps:
            in_tail = worker.check_sample(c, i * dt)
            if observer is not None:
                observer(i * dt, SpectralField(grid, _mirror(grid, c)))
    if i < n_steps:
        # The tail's samples, in blocks of as many full arrays as fit in
        # _stack_rows' budget: one tail call, one flush and one mirror per
        # block.  A tail state is a checked finite state times propagators
        # of modulus <= 1, so no tail sample is checked.
        ends = [*range(i + every, n_steps, every), n_steps]
        steps = [end - start for start, end in zip([i, *ends], ends)]
        rows = _stack_rows(v0.coeffs.nbytes, 1)
        for at in range(0, len(ends), rows):
            block = worker.tail(c, steps[at : at + rows])
            c = block[-1]
            if observer is not None:
                for end, full in zip(ends[at : at + rows], _mirror(grid, block)):
                    observer(end * dt, SpectralField(grid, full))
    return TrajectoryState(n_steps * dt, SpectralField(grid, _mirror(grid, c)), n_steps)

"""Fourier-side representation of real periodic fields on the 1- and 2-torus.

Fields live on [-pi, pi)^d, d in {1, 2}, sampled at uniform collocation
nodes x_j = -pi + 2*pi*j/P, and are stored as truncated Fourier coefficient
arrays indexed by integer wavenumbers k with |k_i| <= M.  Coefficients use
the mean-normalized convention

    c(k) = (2 pi)^{-d} * integral f(x) exp(-i k.x) dx,

so that f(x) = sum_k c(k) exp(i k.x) and c(0) is the mean of the field.
Under this convention the squared L2 norm is (2 pi)^d * sum_k |c(k)|^2.

The collocation nodes do not start at the origin, so the discrete transform
carries an explicit phase (-1)^(k_1+...+k_d) relative to numpy's FFT bins;
both transform directions below account for it.

The transforms are real-to-complex: they work on the k_d >= 0 half of the
last axis only, so a forward transform is Hermitian by construction.  One
rule serves 1D and 2D.  Each direction is, in 2D only, a complex FFT along
the leading axis (the forward's on the retained k_2 = 0..M columns only),
then one pass along the last axis, of one of two kinds: numpy's
rfft/irfft, or a product with a precomputed real matrix on the float64
view of the bins (`_dense_pair`).  The product is the faster kind where
numpy.fft's per-call cost outweighs its O(P M) work: on 1D grids with
P <= _DENSE_MAX_POINTS, and on 2D grids whose last-axis matrix,
2(M+1) x P, has at most _DENSE_2D_MAX_ENTRIES entries.  On a dense 1D grid
that pass is the whole transform, and it keeps a matrix-vector form, one
product per field: the matrix-matrix form of the 2D pass sums in another
order and gives other bits on nearly every half.

Every matrix product of the 2D last-axis pass runs on one OpenBLAS
thread: it is split into row blocks of at most _ONE_THREAD_GEMM_SIZE
multiply-adds, the size below which OpenBLAS never starts a second thread,
so its bits do not depend on the thread count and no spinning thread slows
the FFTs that follow.

The private pair `_phys_from_coeffs`/`_coeffs_from_phys` takes and returns
the half, coeffs[..., M:] of shape (M+1,) in 1D and (2M+1, M+1) in 2D; the
stepper marches it directly, because the other half is its conjugate mirror
and carries no information.  `_mirror` rebuilds the full (2M+1)^d layout,
which SpectralField keeps, once per public result.  The inverse reads only
the half and therefore assumes Hermitian input, c(-k) = conj(c(k)); every
constructor here produces such arrays and every operation keeps them so.
Both directions also take a stack, one field per leading index: the
inverse a stack of halves, as the run recorder passes them, the forward a
stack of sample arrays, as validate's round trip passes them.  Each row
of the result is, bit for bit, the transform of that row alone.

Both private transforms take an optional `_Workspace`: buffers allocated
once per grid that hold one field's zero-padded spectrum, samples and
intermediates of the two passes, so the march's remainder evaluator does
not allocate (and page-fault in) a fresh P^d array per call.  On the FFT
paths the inverse then returns `work.phys` itself, which the next call
with the same workspace overwrites; a workspace serves one field of one
caller at a time and is not re-entrant.  The dense 1D pair uses no
workspace: each direction is one product into a new array, as for a
stack.  The forward transform always returns a new half.  Without a
workspace both run the same code on fresh arrays, as every stack does.

Values are immutable: every operation returns a new SpectralField and no
function mutates the coefficient array of its argument.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# A field counts as zero-mean when its mean coefficient is at most this
# fraction of 1 + sum|c(k)|: rounding from transforms and arithmetic on
# an exactly zero-mean field stays far below it.
ZERO_MEAN_TOL = 1e-12

# Largest P at which a 1D grid runs the transform pair as dense matrix
# products instead of numpy.fft calls (see `_dense_pair`).  Measured on
# inverse+forward pairs: the dense pair is faster at every P up to 192 at
# padding 1 and 2; from P = 200 to 232 at padding 1 the two are within
# ~15% either way, and past that the FFT wins at every P with small prime
# factors (BENCH_dense_1d_transform.json).  The largest matrix at this
# bound, 192 x 192, is far below the size at which OpenBLAS starts a second
# thread for a matrix-vector product.
_DENSE_MAX_POINTS = 192

# Largest last-axis matrix, in entries 2(M+1) * P, with which a 2D grid
# runs the last-axis pass of the transform pair as blocked dense products
# instead of numpy's rfft/irfft; the axis-0 complex pass stays an FFT.  The
# dense pass costs P times the matrix per direction, the FFT about
# P^2 log P whatever M is, so the crossover is in the matrix size, not in
# P.  Scanned on one thread at paddings 1 to 3, the dense inverse+forward
# pair was faster, or level within the scan's noise, at every grid up to
# this size; from 11 000 entries on, the FFT won at some 5-smooth P, by up
# to 2.5x past 20 000 (BENCH_dense_2d_pass.json).  The bound takes 2D M=32
# at padding 2 (P=130, 8580 entries) and stops at M=34 there, at M=49 at
# padding 1.
_DENSE_2D_MAX_ENTRIES = 10_000

# OpenBLAS runs a matrix-matrix product of m*n*k <= 65536 *
# GEMM_MULTITHREAD_THRESHOLD (4 unless built otherwise) multiply-adds on
# the calling thread alone; the 2D last-axis products are cut into row
# blocks of at most this size (see `_row_blocks`).
_ONE_THREAD_GEMM_SIZE = 65536 * 4


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the periodic box [-pi, pi)^d.

    Attributes:
        dim: spatial dimension, 1 or 2.
        modes_per_axis: highest retained wavenumber M per axis; coefficients
            cover |k_i| <= M, an array of 2M+1 entries per axis.
        phys_points_per_axis: collocation points P per axis.  P must be even
            and large enough to dealias, P >= padding_factor * (2M+1).
        padding_factor: oversampling ratio of the collocation grid relative
            to the minimal 2M+1 points, >= 1.
    """

    dim: int
    modes_per_axis: int
    phys_points_per_axis: int
    padding_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.modes_per_axis < 1:
            raise ValueError(f"modes_per_axis must be >= 1, got {self.modes_per_axis}")
        if self.padding_factor < 1.0:
            raise ValueError(f"padding_factor must be >= 1, got {self.padding_factor}")
        p = self.phys_points_per_axis
        m = self.modes_per_axis
        if p % 2 != 0:
            raise ValueError(f"phys_points_per_axis must be even, got {p}")
        if p < 2 * m + 1:
            raise ValueError(
                f"phys_points_per_axis={p} cannot resolve modes_per_axis={m}; "
                f"need at least {2 * m + 1}"
            )
        if p + 1e-9 < self.padding_factor * (2 * m + 1):
            raise ValueError(
                f"phys_points_per_axis={p} below padding requirement "
                f"{self.padding_factor} * {2 * m + 1}"
            )

    @classmethod
    def create(
        cls,
        dim: int,
        modes_per_axis: int,
        padding_factor: float = padding_factor,
        phys_points_per_axis: int | None = None,
    ) -> "GridSpec":
        """Build a grid, choosing the smallest admissible even P when not given.

        The padding default is the field's: the class body's
        `padding_factor` is its default value when this signature is made.
        """
        if phys_points_per_axis is None:
            target = padding_factor * (2 * modes_per_axis + 1)
            p = int(math.ceil(target - 1e-9))
            if p % 2 != 0:
                p += 1
            phys_points_per_axis = p
        return cls(dim, modes_per_axis, phys_points_per_axis, padding_factor)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Per-axis wavenumbers -M..M in storage order."""
        m = self.modes_per_axis
        return np.arange(-m, m + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Per-axis collocation nodes -pi + 2*pi*j/P, j = 0..P-1."""
        p = self.phys_points_per_axis
        return -math.pi + TWO_PI * np.arange(p) / p

    @property
    def coeff_shape(self) -> tuple[int, ...]:
        return (2 * self.modes_per_axis + 1,) * self.dim

    @property
    def zero_index(self) -> tuple[int, ...]:
        """Storage index of the mean mode k = 0."""
        return (self.modes_per_axis,) * self.dim

    @property
    def phys_shape(self) -> tuple[int, ...]:
        return (self.phys_points_per_axis,) * self.dim

    @property
    def axes(self) -> tuple[int, ...]:
        """The grid's axes of a field's array, or of a stack of them: the
        last dim axes, counted from the end."""
        return tuple(range(-self.dim, 0))

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one collocation cell, (2 pi / P)^d."""
        return (TWO_PI / self.phys_points_per_axis) ** self.dim

    def index_of(self, k) -> tuple[int, ...]:
        """Storage index of wavenumber k (an int in 1D, a pair in 2D)."""
        m = self.modes_per_axis
        ks = (k,) if self.dim == 1 else tuple(k)
        if len(ks) != self.dim:
            raise ValueError(f"wavenumber {k!r} does not match dim={self.dim}")
        for ki in ks:
            if abs(ki) > m:
                raise ValueError(f"wavenumber {k!r} outside retained band |k_i| <= {m}")
        return tuple(int(ki) + m for ki in ks)


@functools.lru_cache(maxsize=None)
def _plan(grid: GridSpec):
    """Cached multiplier tables for transforms and operators on a given grid.

    `inverse` and `forward` are the phase and scale multipliers of the
    retained k_d >= 0 half, shaped like coeffs[..., M:].  On 1D grids with
    P <= _DENSE_MAX_POINTS, `dense_inverse` and `dense_forward` are the
    real matrices of the whole transform pair (see `_dense_pair`); on 2D
    grids with at most _DENSE_2D_MAX_ENTRIES entries in that matrix,
    `last_inverse` (2(M+1) x P) and `last_forward` (P x 2(M+1)) are the
    same matrices, transposed, for the last-axis pass, and `last_blocks`
    the row blocks of its products (see `_row_blocks`).  Each is None
    elsewhere, where the FFT runs.  The last-axis matrices carry (-1)^{k_2}
    and that axis's 1/P, so on those grids the tables hold only the first
    axis's phase and scale.
    `k4_half` is the read-only, C-contiguous k_d >= 0 half of |k|^4,
    k4[..., M:], the layout of the stepper's march and of the model's
    remainder evaluator.
    """
    m, p = grid.modes_per_axis, grid.phys_points_per_axis
    k = np.arange(-m, m + 1)
    dense = p <= _DENSE_MAX_POINTS if grid.dim == 1 else 2 * (m + 1) * p <= _DENSE_2D_MAX_ENTRIES
    last = dense and grid.dim == 2
    # (-1)^k per axis; the product over axes gives the node-offset phase.
    # A dense last axis carries its sign and 1/P in its matrices.
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    signs = [sign] * (grid.dim - 1) + [np.ones_like(sign) if last else sign]
    half_phase = functools.reduce(np.multiply.outer, signs)[..., m:]
    scale = float(p) ** (grid.dim - last)
    ksq = functools.reduce(np.add.outer, [k.astype(float) ** 2] * grid.dim)
    kmag = np.sqrt(ksq)
    inverse, forward = _dense_pair(grid) if dense else (None, None)
    if last:
        # C-contiguous copies: a transposed view made the products up to 2x slower.
        inverse, forward = np.ascontiguousarray(inverse.T), np.ascontiguousarray(forward.T)
        inverse.flags.writeable = forward.flags.writeable = False
    k4 = ksq**2
    k4_half = k4[..., m:].copy()
    k4_half.flags.writeable = False
    return {
        "inverse": half_phase * scale,
        "forward": half_phase / scale,
        "dense_inverse": None if last else inverse,
        "dense_forward": None if last else forward,
        "last_inverse": inverse if last else None,
        "last_forward": forward if last else None,
        "last_blocks": _row_blocks(p, 2 * (m + 1) * p) if last else None,
        "k4": k4,
        "k4_half": k4_half,
        "kmag": kmag,
    }


def _row_blocks(rows: int, per_row: int) -> tuple[slice, ...]:
    """Row slices of a product with `rows` rows of `per_row` multiply-adds
    each, in blocks of at most _ONE_THREAD_GEMM_SIZE multiply-adds.

    The blocks are as equal as the division allows, so with an even
    number of rows none holds a single row: numpy would make that block a
    matrix-vector product, which OpenBLAS threads past a far smaller size.
    """
    per_block = max(2, _ONE_THREAD_GEMM_SIZE // per_row)
    count = -(-rows // per_block)
    edges = [rows * i // count for i in range(count + 1)]
    return tuple(slice(a, b) for a, b in zip(edges, edges[1:]))


def _blocked_product(
    a: np.ndarray, matrix: np.ndarray, out: np.ndarray, blocks: tuple[slice, ...]
) -> np.ndarray:
    """out = a @ matrix over the last two axes, one np.matmul per row block
    of `blocks`.  `a` is one field's (P, n) array or a stack of them; matmul
    makes one BLAS product per field of a stack, so each row of a stack is
    its own field's bits."""
    for rows in blocks:
        np.matmul(a[..., rows, :], matrix, out=out[..., rows, :])
    return out


def _dense_pair(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Real matrices of the 1D transform pair on the float64 view of the half;
    transposed, those of the 2D last-axis pass on each row of bins.

    The half c_0..c_M, viewed as (Re c_0, Im c_0, Re c_1, Im c_1, ...), is
    2(M+1) reals.  The inverse, shaped (P, 2(M+1)), gives the samples

        v_j = Re c_0 + 2 sum_{k=1..M} (-1)^k (Re c_k cos t_kj - Im c_k sin t_kj),

    with t_kj = 2 pi k j / P, which is what irfft makes of the half (it
    ignores Im c_0, and M < P/2 leaves no Nyquist bin).  The forward,
    shaped (2(M+1), P), gives Re c_k = (-1)^k/P sum_j v_j cos t_kj and
    Im c_k = -(-1)^k/P sum_j v_j sin t_kj.  Its Im c_0 row and the
    inverse's Im c_0 column are exactly zero, so the mean comes out real.

    k*j is reduced mod P in integers, and the angle 2 pi r / P, r in
    [0, P), is folded into [0, pi/2] by sin(2 pi - x) = -sin x and
    cos(pi - x) = -cos x before cos and sin are taken.  Every entry is then
    within about an ulp of its exact value, and entries equal in exact
    arithmetic are equal here.  Angles taken up to 2 pi leave entries up to
    4 ulps off, and leak enough rounding into the modes a harmonic does not
    excite to move |v|_0 of the 1D reference runs, just above its rounding
    floor, 5x further from the FFT path's values.
    """
    m, p = grid.modes_per_axis, grid.phys_points_per_axis
    k = np.arange(m + 1)
    r = np.outer(k, np.arange(p)) % p
    sin_sign = np.where(r > p // 2, -1.0, 1.0)
    r = np.minimum(r, p - r)
    cos_sign = np.where(2 * r > p // 2, -1.0, 1.0)
    r = np.minimum(r, p // 2 - r)
    angle = (TWO_PI / p) * r
    cos, sin = cos_sign * np.cos(angle), sin_sign * np.sin(angle)
    sign = np.where(k % 2 == 0, 1.0, -1.0)[:, None]
    forward = np.empty((2 * (m + 1), p))
    forward[0::2] = sign * cos / p
    forward[1::2] = -sign * sin / p
    forward[1] = 0.0
    fold = np.where(k == 0, 1.0, 2.0)[:, None]
    inverse = np.empty((2 * (m + 1), p))
    inverse[0::2] = fold * sign * cos
    inverse[1::2] = -fold * sign * sin
    inverse[1] = 0.0
    inverse = np.ascontiguousarray(inverse.T)
    for table in (inverse, forward):
        table.flags.writeable = False
    return inverse, forward


@functools.lru_cache(maxsize=256)
def _norm_weights(grid: GridSpec, kind: str, orders: tuple) -> np.ndarray:
    """Per-mode weights of the Wiener ("wiener") or Sobolev ("sobolev")
    norms at each of `orders`, one flattened (2M+1)^d row per order."""
    if kind == "wiener" and any(alpha < 0 for alpha in orders):
        raise ValueError("wiener_norm requires alpha >= 0")
    kmag = _plan(grid)["kmag"].reshape(-1)
    w = np.zeros((len(orders), kmag.size))
    for row, alpha in zip(w, orders):
        if kind == "wiener":
            row[:] = kmag**alpha
        elif alpha == 0:
            row[:] = 1.0
        else:
            mask = kmag > 0
            row[mask] = kmag[mask] ** (2.0 * alpha)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class SpectralField:
    """A real field represented by its truncated Fourier coefficients.

    The coefficient array is indexed so that entry i corresponds to
    wavenumber k = i - M along each axis.  Real fields satisfy the Hermitian
    symmetry c(-k) = conj(c(k)); the constructors in this module enforce it
    exactly and every operation preserves it.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.coeff_shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match grid {self.grid.coeff_shape}"
            )
        object.__setattr__(self, "coeffs", c)

    def coeff(self, k) -> complex:
        """Coefficient at wavenumber k."""
        return complex(self.coeffs[self.grid.index_of(k)])

    @property
    def mean_value(self) -> float:
        return float(self.coeffs[self.grid.zero_index].real)

    @property
    def has_zero_mean(self) -> bool:
        """True when the mean-mode coefficient is exactly zero."""
        return self.coeffs[self.grid.zero_index] == 0

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        c = self.coeffs
        flipped = np.conj(np.flip(c))
        scale = 1.0 + float(np.max(np.abs(c))) if c.size else 1.0
        return bool(np.max(np.abs(c - flipped)) <= tol * scale)


# Bytes of the recorder's chunk stacks (diagnostics) and the exact tail's
# propagator stack (stepper): half of glibc's 128 KiB mmap threshold, so a
# stack and its temporaries come from the heap, not a fresh mapping.
_STACK_BYTES = 64 * 1024


def _stack_rows(row_nbytes: int, least: int) -> int:
    """Rows of `row_nbytes` bytes that fit in _STACK_BYTES, and at least `least`."""
    return max(least, _STACK_BYTES // row_nbytes)


class _Workspace:
    """Scratch buffers of the transform pair on one grid.

    Each buffer but `phys` has one leading axis of P in 2D and none in 1D.
    `spec` is the zero-padded spectrum the inverse reads, M+1 bins per row,
    with rows k_1 = M+1..P-M-1 left zero in 2D; `rows` the forward's
    last-axis pass of the samples, its P//2 + 1 rfft bins, or on the dense
    last-axis pass its retained k_d = 0..M bins; `cols` the complex FFT
    along the leading axis, of `spec` in the inverse and of the retained
    columns of `rows` in the forward (unused in 1D); `phys` the P^d
    samples.  The dense 1D transforms use no workspace: each is one
    product into a new array.  A workspace serves one field; a stack is
    transformed into fresh arrays.

    The buffers are views of one zeroed block.  At 2D M=32 it is about
    0.34 MB, above glibc's mmap threshold; once such a block is freed,
    glibc raises its mmap and trim thresholds past that size, so the
    observer's per-sample P^d temporaries reuse heap pages instead of
    being mapped and faulted in afresh at every sample; `_stack_rows`
    keeps the stacks of the recorder and the tail below that threshold.
    tests/test_stepper.py::TestColdRunPageFaults pins the effect: a fresh
    process's first 100-step 2D M=32 run takes about 550 minor faults, and
    a sample buffer alone in place of the workspace crossed 10 000.
    """

    def __init__(self, grid: GridSpec):
        m, p = grid.modes_per_axis, grid.phys_points_per_axis
        lead = (p,) * (grid.dim - 1)
        bins = m + 1 if _plan(grid)["last_forward"] is not None else p // 2 + 1
        layout = [
            ("spec", lead + (m + 1,), np.complex128),
            ("rows", lead + (bins,), np.complex128),
            ("cols", lead + (m + 1,), np.complex128),
            ("phys", grid.phys_shape, np.float64),
        ]
        sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, shape, dtype in layout]
        block = np.zeros(sum(sizes), dtype=np.uint8)
        offset = 0
        for (name, shape, dtype), size in zip(layout, sizes):
            setattr(self, name, np.ndarray(shape, dtype, buffer=block, offset=offset))
            offset += size


def _phys_from_coeffs(
    grid: GridSpec, half: np.ndarray, work: _Workspace | None = None
) -> np.ndarray:
    """Raw-array inverse transform of a Hermitian half; real P^d samples.

    `half` is the k_d >= 0 half of the coefficients, coeffs[..., M:]:
    shape (M+1,) in 1D, (2M+1, M+1) in 2D, or a stack of them, (B, M+1)
    or (B, 2M+1, M+1), whose row b of the result is, bit for bit, the
    transform of half[b] alone.  The half takes its phase and scale; in 2D
    its rows are zero-padded to P and the inverse FFT runs along the
    leading axis; then the last-axis pass, irfft from the P//2 + 1 bins
    of the grid or the dense product, makes the samples.  The dense 1D
    path is the whole transform in one product, takes no workspace and
    returns a new array; on the other paths, with a workspace, for one
    field only, the samples are written to `work.phys`.
    """
    m = grid.modes_per_axis
    p = grid.phys_points_per_axis
    plan = _plan(grid)
    if plan["dense_inverse"] is not None:
        # A strided half has no float64 view; a contiguous one is not copied.
        parts = np.ascontiguousarray(half).view(np.float64)
        # One matrix-vector BLAS call per half, for a single half as for
        # each half of a stack, where a matrix-matrix product of the stack
        # would sum in another order.  The 2D pass's row form,
        # parts[None, :] @ the transposed matrix, is such a product too: on
        # every dense 1D grid it gave other bits for nearly every random
        # half (811 of 820 inverse, 817 of 820 forward halves), so 1D
        # keeps this form.
        return np.matmul(plan["dense_inverse"], parts[..., None])[..., 0]
    out = None if work is None else work.phys
    table = plan["inverse"]
    if grid.dim == 1:
        spec = np.multiply(half, table, out=None if work is None else work.spec)
    else:
        # Rows in FFT order: k_1 = 0..M first, k_1 = -M..-1 last, zeros between.
        if work is None:
            spec = np.zeros(half.shape[:-2] + (p, m + 1), dtype=np.complex128)
        else:
            spec = work.spec
        np.multiply(half[..., m:, :], table[m:], out=spec[..., : m + 1, :])
        np.multiply(half[..., :m, :], table[:m], out=spec[..., p - m :, :])
        # irfft2's own two passes, spelled out, because irfft2 drops its `out`
        # argument (numpy 2.4 passes out=None on to irfftn).
        spec = np.fft.ifft(spec, axis=-2, out=None if work is None else work.cols)
    if plan["last_inverse"] is None:
        return np.fft.irfft(spec, n=p, axis=-1, out=out)
    if out is None:
        out = np.empty(spec.shape[:-1] + (p,))
    return _blocked_product(spec.view(np.float64), plan["last_inverse"], out, plan["last_blocks"])


def _coeffs_from_phys(
    grid: GridSpec, samples: np.ndarray, work: _Workspace | None = None
) -> np.ndarray:
    """Raw-array forward transform to the k_d >= 0 half, coeffs[..., M:].

    `samples` is one field's P^d array or a stack of them, (B,) + P^d,
    whose row b of the result is, bit for bit, the transform of
    samples[b] alone.  The inverse's steps run in reverse: the last-axis
    pass, rfft cut to the k_d = 0..M bins or the dense product (one BLAS
    product per field and row block), then in 2D the FFT along the leading
    axis on those columns, and the phase and scale.  The dense 1D path is
    the whole transform, one matrix-vector product per field.  With a
    workspace, for one field only, the intermediates go to its buffers.
    The half is always a new array.  `_mirror` rebuilds the full layout
    from it, exactly Hermitian.
    """
    m = grid.modes_per_axis
    plan = _plan(grid)
    if plan["dense_forward"] is not None:
        # As in the inverse: matmul makes np.dot's BLAS call for each row,
        # and for a single field, and the row form would change the bits.
        return np.matmul(plan["dense_forward"], samples[..., None])[..., 0].view(np.complex128)
    table = plan["forward"]
    rows = None if work is None else work.rows
    if plan["last_forward"] is None:
        rows = np.fft.rfft(samples, out=rows)[..., : m + 1]
    else:
        if rows is None:
            rows = np.empty(samples.shape[:-1] + (m + 1,), dtype=np.complex128)
        # A strided array would take numpy's own loop, not BLAS.
        samples = np.ascontiguousarray(samples)
        _blocked_product(samples, plan["last_forward"], rows.view(np.float64), plan["last_blocks"])
    if grid.dim == 1:
        return rows * table
    # The axis-0 FFT runs on the k_2 = 0..M columns only: per column it is
    # the transform rfft2 applies to them, for half of rfft2's axis-0 work.
    spec = np.fft.fft(rows, axis=-2, out=None if work is None else work.cols)
    half = np.empty(spec.shape[:-2] + (2 * m + 1, m + 1), dtype=np.complex128)
    np.multiply(spec[..., : m + 1, :], table[m:], out=half[..., m:, :])
    np.multiply(spec[..., -m:, :], table[:m], out=half[..., :m, :])
    # The k_2 = 0 column comes from a complex FFT along axis 0, which leaves
    # its k_1 -> -k_1 symmetry inexact; the other columns have no partner
    # inside the half.
    col = half[..., 0]
    half[..., 0] = 0.5 * (col + np.conj(col[..., ::-1]))
    return half


# Per dimension, the index of a half (or a stack of them) that yields its
# k_d < 0 mirror, conjugate aside: every axis reversed, the last without
# its k_d = 0 column.  A constant: built in each `_mirror` call, the index
# cost a 1D call 17%.
_HALF_FLIP = {1: np.s_[..., :0:-1], 2: np.s_[..., ::-1, :0:-1]}


def _mirror(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Full (2M+1)^d coefficient array from its k_d >= 0 half, c(-k) = conj(c(k));
    for a stack of halves, (B,) + the half's shape, the stack of their full arrays."""
    return np.concatenate((np.conj(half[_HALF_FLIP[grid.dim]]), half), axis=-1)


def to_physical(f: SpectralField) -> np.ndarray:
    """Sample the field at the collocation nodes of its grid.

    Returns a real array of shape (P,) in 1D or (P, P) in 2D.  Only the
    k_d >= 0 half of the coefficients is read, which is exact for the
    Hermitian fields this module constructs.
    """
    return _phys_from_coeffs(f.grid, f.coeffs[..., f.grid.modes_per_axis :])


def from_physical(samples: np.ndarray, grid: GridSpec) -> SpectralField:
    """Project real samples on the collocation grid onto the retained modes.

    Args:
        samples: real array of shape (P,) or (P, P) matching the grid.
        grid: target discretization.

    Raises:
        ValueError: if the sample array is complex or its shape does not
            match the grid.
    """
    s = np.asarray(samples)
    if np.iscomplexobj(s):
        raise ValueError("from_physical expects real samples")
    if s.shape != grid.phys_shape:
        raise ValueError(
            f"sample shape {s.shape} does not match grid {grid.phys_shape}"
        )
    return SpectralField(grid, _mirror(grid, _coeffs_from_phys(grid, s.astype(float))))


def field_from_modes(grid: GridSpec, modes) -> SpectralField:
    """Build sum_i a_i * sin(k_i . x + phase_i) as a SpectralField.

    Args:
        grid: target discretization.
        modes: iterable of (k, amplitude, phase) with k an int (1D) or a
            pair (2D).

    Raises:
        ValueError: for a mode with |k_i| > M, or for k = 0, whose sine is
            a constant, not a mode.
    """
    coeffs = np.zeros(grid.coeff_shape, dtype=np.complex128)
    m = grid.modes_per_axis
    for k, amplitude, phase in modes:
        idx = grid.index_of(k)
        if idx == grid.zero_index:
            raise ValueError(f"wavenumber {k!r} is the mean mode; a sine mode needs k != 0")
        # a*sin(theta) = (a/(2i)) e^{i theta} - (a/(2i)) e^{-i theta}
        half = amplitude * np.exp(1j * phase) / 2j
        coeffs[idx] += half
        coeffs[tuple(2 * m - i for i in idx)] += np.conj(half)  # -k
    return SpectralField(grid, coeffs)


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.coeff_shape, dtype=np.complex128))


def with_zero_mean(f: SpectralField) -> SpectralField:
    """Copy of the field with the mean-mode coefficient set to exactly zero."""
    c = f.coeffs.copy()
    c[f.grid.zero_index] = 0.0
    return SpectralField(f.grid, c)


def require_zero_mean(f: SpectralField) -> None:
    """Raise ValueError unless the mean coefficient is at most
    ZERO_MEAN_TOL times 1 + sum|c(k)|."""
    center = f.coeffs[f.grid.zero_index]
    scale = 1.0 + float(np.sum(np.abs(f.coeffs)))
    if abs(center) > ZERO_MEAN_TOL * scale:
        raise ValueError(
            f"field has non-zero mean coefficient {center!r}; expected a zero-mean field"
        )


def norms(
    f: SpectralField, wiener_orders: tuple = (), sobolev_orders: tuple = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Wiener norms and Sobolev seminorms of f at several orders in one pass.

    |c(k)| is computed once, and each family is one product of its cached
    weight rows with it, summed along the modes.  Entry i of the results is
    wiener_norm(f, wiener_orders[i]) and sobolev_norm(f, sobolev_orders[i]),
    bit for bit: those are this function's one-order case.  The orders are
    tuples (they key the weight cache).
    """
    return _coeff_norms(f.grid, f.coeffs, wiener_orders, sobolev_orders)


def _coeff_norms(
    grid: GridSpec, coeffs: np.ndarray, wiener_orders: tuple = (), sobolev_orders: tuple = ()
) -> tuple[np.ndarray, np.ndarray]:
    """`norms` of a full coefficient array, or of a stack of them.

    For coeffs of shape (B,) + grid.coeff_shape the results are (B, orders)
    arrays whose row b is, bit for bit, norms of coeffs[b] alone: each
    product is formed and summed along the modes as for one field.  A
    family given no orders comes back empty, shaped (B, 0) for a stack.
    """
    lead = coeffs.shape[: coeffs.ndim - grid.dim]
    a = np.abs(coeffs).reshape(lead + (1, -1))
    wiener = sobolev = np.zeros(lead + (0,))
    if wiener_orders:
        wiener = np.add.reduce(_norm_weights(grid, "wiener", wiener_orders) * a, axis=-1)
    if sobolev_orders:
        weights = _norm_weights(grid, "sobolev", sobolev_orders)
        sobolev = np.sqrt(np.add.reduce(weights * a**2, axis=-1))
    return wiener, sobolev


def wiener_norm(f: SpectralField, alpha: float = 0.0) -> float:
    """Weighted absolute-coefficient sum, sum_k |k|^alpha |c(k)|.

    Uses the 0^0 = 1 convention, so alpha = 0 includes the mean mode while
    any alpha > 0 drops it.
    """
    return float(norms(f, wiener_orders=(alpha,))[0][0])


def sobolev_norm(f: SpectralField, alpha: float = 0.0) -> float:
    """Sobolev seminorm (sum_k |k|^{2 alpha} |c(k)|^2)^{1/2}.

    Follows the same 0^0 = 1 convention as wiener_norm: the mean mode
    contributes only at alpha = 0.  Negative alpha is supported for
    zero-mean fields; the mean mode is excluded then.
    """
    return float(norms(f, sobolev_orders=(alpha,))[1][0])


def l2_quadrature(grid: GridSpec, samples: np.ndarray) -> np.floating | np.ndarray:
    """L2 norm of collocation samples by grid quadrature.

    Sums over the grid's axes, the last grid.dim of `samples`: one field's
    samples give a float64 scalar, a stack of them an array of one norm
    per field, bit for bit each field's own.
    """
    squares = (samples * samples).sum(axis=grid.axes)
    return np.sqrt(grid.cell_volume * squares)


def extremes(grid: GridSpec, samples: np.ndarray):
    """Min, max and max|v| of collocation samples, over the grid's axes,
    the last grid.dim of `samples`: float64 scalars for one field's
    samples, arrays of one value per field for a stack of them.

    max|v| is taken from the min and the max, as max(hi, -lo) the way
    Python's max picks it, through abs, which turns the -0.0 of all
    negative-zero samples into 0.0: bit for bit np.max(np.abs(samples)),
    without its P^d temporary.
    """
    lo, hi = samples.min(axis=grid.axes), samples.max(axis=grid.axes)
    return lo, hi, np.abs(np.where(-lo > hi, -lo, hi))


def l2_norm(f: SpectralField) -> float:
    """L2 norm by grid quadrature; Parseval ties it to (2 pi)^{d/2} H^0."""
    return float(l2_quadrature(f.grid, to_physical(f)))


def linf_norm(f: SpectralField) -> float:
    """Maximum absolute sample value on the collocation grid."""
    return float(extremes(f.grid, to_physical(f))[2])

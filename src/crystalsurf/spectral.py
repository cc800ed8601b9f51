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
last axis only (numpy's rfft/irfft in 1D, rfft2/irfft2 in 2D), so a forward
transform is Hermitian by construction.  The private pair
`_phys_from_coeffs`/`_coeffs_from_phys` takes and returns that half,
coeffs[..., M:] of shape (M+1,) in 1D and (2M+1, M+1) in 2D; the stepper
marches it directly, because the other half is its conjugate mirror and
carries no information.  `_mirror` rebuilds the full (2M+1)^d layout, which
SpectralField keeps, once per public result.  The inverse reads only the
half and therefore assumes Hermitian input, c(-k) = conj(c(k)); every
constructor here produces such arrays and every operation keeps them so.

Values are immutable: every operation returns a new SpectralField and no
function mutates the coefficient array of its argument.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


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
        padding_factor: float = 2.0,
        phys_points_per_axis: int | None = None,
    ) -> "GridSpec":
        """Build a grid, choosing the smallest admissible even P when not given."""
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
    retained k_d >= 0 half, shaped like coeffs[..., M:].
    """
    m = grid.modes_per_axis
    scale = float(grid.phys_points_per_axis) ** grid.dim
    k = np.arange(-m, m + 1)
    # (-1)^k per axis; the product over axes gives the node-offset phase.
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    if grid.dim == 1:
        phase = sign
        ksq = (k.astype(float)) ** 2
    else:
        phase = np.outer(sign, sign)
        kf = k.astype(float)
        ksq = kf[:, None] ** 2 + kf[None, :] ** 2
    half_phase = phase[..., m:]
    kmag = np.sqrt(ksq)
    return {
        "inverse": half_phase * scale,
        "forward": half_phase / scale,
        "k4": ksq**2,
        "kmag": kmag,
    }


@functools.lru_cache(maxsize=256)
def _norm_weights(grid: GridSpec, kind: str, alpha: float) -> np.ndarray:
    """Per-mode weights of wiener_norm ("wiener") or sobolev_norm ("sobolev")."""
    kmag = _plan(grid)["kmag"]
    if kind == "wiener":
        w = kmag**alpha
    elif alpha == 0:
        w = np.ones_like(kmag)
    else:
        w = np.zeros_like(kmag)
        mask = kmag > 0
        w[mask] = kmag[mask] ** (2.0 * alpha)
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


def _phys_from_coeffs(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Raw-array inverse transform of a Hermitian half; real P^d samples.

    `half` is the k_d >= 0 half of the coefficients, coeffs[..., M:]:
    shape (M+1,) in 1D, (2M+1, M+1) in 2D.  irfft zero-pads it to the
    P//2 + 1 bins of the grid.
    """
    m = grid.modes_per_axis
    p = grid.phys_points_per_axis
    table = _plan(grid)["inverse"]
    if grid.dim == 1:
        return np.fft.irfft(half * table, n=p)
    # Rows in FFT order: k_1 = 0..M first, k_1 = -M..-1 last, zeros between.
    spec = np.zeros((p, m + 1), dtype=np.complex128)
    np.multiply(half[m:], table[m:], out=spec[: m + 1])
    np.multiply(half[:m], table[:m], out=spec[p - m :])
    return np.fft.irfft2(spec, s=(p, p))


def _coeffs_from_phys(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Raw-array forward transform to the k_d >= 0 half, coeffs[..., M:].

    `_mirror` rebuilds the full layout from it, exactly Hermitian.
    """
    m = grid.modes_per_axis
    table = _plan(grid)["forward"]
    if grid.dim == 1:
        return np.fft.rfft(samples)[: m + 1] * table
    spec = np.fft.rfft2(samples)
    half = np.empty((2 * m + 1, m + 1), dtype=np.complex128)
    np.multiply(spec[: m + 1, : m + 1], table[m:], out=half[m:])
    np.multiply(spec[-m:, : m + 1], table[:m], out=half[:m])
    # The k_2 = 0 column comes from a complex FFT along axis 0, which leaves
    # its k_1 -> -k_1 symmetry inexact; the other columns have no partner
    # inside the half.
    col = half[:, 0]
    half[:, 0] = 0.5 * (col + np.conj(col[::-1]))
    return half


def _mirror(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Full (2M+1)^d coefficient array from its k_d >= 0 half, c(-k) = conj(c(k))."""
    m = grid.modes_per_axis
    if grid.dim == 1:
        return np.concatenate((np.conj(half[:0:-1]), half))
    full = np.empty(grid.coeff_shape, dtype=np.complex128)
    full[:, m:] = half
    full[:, :m] = np.conj(half[::-1, :0:-1])
    return full


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


def require_zero_mean(f: SpectralField, tol: float = 1e-12) -> None:
    """Raise ValueError unless the mean coefficient is negligible."""
    center = f.coeffs[f.grid.zero_index]
    scale = 1.0 + float(np.sum(np.abs(f.coeffs)))
    if abs(center) > tol * scale:
        raise ValueError(
            f"field has non-zero mean coefficient {center!r}; expected a zero-mean field"
        )


def wiener_norm(f: SpectralField, alpha: float = 0.0) -> float:
    """Weighted absolute-coefficient sum, sum_k |k|^alpha |c(k)|.

    Uses the 0^0 = 1 convention, so alpha = 0 includes the mean mode while
    any alpha > 0 drops it.
    """
    if alpha < 0:
        raise ValueError("wiener_norm requires alpha >= 0")
    w = _norm_weights(f.grid, "wiener", alpha)
    return float(np.sum(w * np.abs(f.coeffs)))


def sobolev_norm(f: SpectralField, alpha: float = 0.0) -> float:
    """Sobolev seminorm (sum_k |k|^{2 alpha} |c(k)|^2)^{1/2}.

    Follows the same 0^0 = 1 convention as wiener_norm: the mean mode
    contributes only at alpha = 0.  Negative alpha is supported for
    zero-mean fields; the mean mode is excluded then.
    """
    w = _norm_weights(f.grid, "sobolev", alpha)
    return float(math.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def l2_quadrature(grid: GridSpec, samples: np.ndarray) -> float:
    """L2 norm of collocation samples by grid quadrature."""
    return float(math.sqrt(grid.cell_volume * np.sum(samples * samples)))


def max_abs(samples: np.ndarray) -> float:
    """Largest absolute value among collocation samples."""
    return float(np.max(np.abs(samples)))


def l2_norm(f: SpectralField) -> float:
    """L2 norm by grid quadrature; Parseval ties it to (2 pi)^{d/2} H^0."""
    return l2_quadrature(f.grid, to_physical(f))


def linf_norm(f: SpectralField) -> float:
    """Maximum absolute sample value on the collocation grid."""
    return max_abs(to_physical(f))

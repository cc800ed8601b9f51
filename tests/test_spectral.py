"""Tests for grids, transforms, operator tables, and norms.

Single trigonometric modes have known coefficients, eigenvalues, and norms,
so most checks compare against closed forms.  Random-field properties
(round trips, Parseval, norm inequalities) run under hypothesis with seeded
generators so failures are reproducible.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystalsurf.spectral import (
    _DENSE_2D_MAX_ENTRIES,
    _DENSE_MAX_POINTS,
    _ONE_THREAD_GEMM_SIZE,
    GridSpec,
    SpectralField,
    _Workspace,
    _coeff_norms,
    _coeffs_from_phys,
    _phys_from_coeffs,
    _plan,
    field_from_modes,
    from_physical,
    l2_norm,
    l2_quadrature,
    linf_norm,
    norms,
    require_zero_mean,
    sobolev_norm,
    to_physical,
    wiener_norm,
    with_zero_mean,
    zero_field,
)


def random_field(grid, seed, scale=1.0):
    """Real random band-limited field from a seeded generator."""
    rng = np.random.default_rng(seed)
    samples = scale * rng.standard_normal(grid.phys_shape)
    return from_physical(samples, grid)


class TestGridSpec:
    def test_create_picks_smallest_even_point_count(self):
        grid = GridSpec.create(1, 16)
        # padding 2.0 over 33 coefficients needs at least 66 points
        assert grid.phys_points_per_axis == 66
        assert grid.phys_points_per_axis % 2 == 0

    def test_create_respects_explicit_points(self):
        grid = GridSpec.create(1, 16, phys_points_per_axis=128)
        assert grid.phys_points_per_axis == 128

    def test_create_padding_one_is_minimal(self):
        grid = GridSpec.create(1, 5, padding_factor=1.0)
        # 2M+1 = 11 is odd, so the next even count is chosen
        assert grid.phys_points_per_axis == 12

    @pytest.mark.parametrize("dim", [0, 3, -1])
    def test_rejects_bad_dimension(self, dim):
        with pytest.raises(ValueError, match="dim must be 1 or 2"):
            GridSpec.create(dim, 8)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError, match="modes_per_axis"):
            GridSpec.create(1, 0)

    def test_rejects_odd_point_count(self):
        with pytest.raises(ValueError, match="must be even"):
            GridSpec(1, 8, 33)

    def test_rejects_underresolved_points(self):
        with pytest.raises(ValueError, match="cannot resolve"):
            GridSpec(1, 8, 16, padding_factor=1.0)

    def test_rejects_points_below_padding(self):
        with pytest.raises(ValueError, match="below padding requirement"):
            GridSpec(1, 8, 18, padding_factor=2.0)

    def test_rejects_padding_below_one(self):
        with pytest.raises(ValueError, match="padding_factor"):
            GridSpec.create(1, 8, padding_factor=0.5)

    def test_is_frozen(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.modes_per_axis = 8

    def test_wavenumbers_cover_symmetric_band(self):
        grid = GridSpec.create(1, 3)
        assert grid.wavenumbers.tolist() == [-3, -2, -1, 0, 1, 2, 3]

    def test_nodes_start_at_minus_pi(self):
        grid = GridSpec.create(1, 4)
        nodes = grid.nodes
        assert nodes[0] == pytest.approx(-math.pi)
        assert nodes[-1] == pytest.approx(math.pi - 2 * math.pi / len(nodes))
        assert len(nodes) == grid.phys_points_per_axis

    def test_shapes_and_cell_volume(self):
        grid = GridSpec.create(2, 5)
        assert grid.coeff_shape == (11, 11)
        assert grid.phys_shape == (grid.phys_points_per_axis,) * 2
        assert grid.cell_volume == pytest.approx(
            (2 * math.pi / grid.phys_points_per_axis) ** 2
        )

    def test_index_of_round_trip_1d(self):
        grid = GridSpec.create(1, 6)
        for k in range(-6, 7):
            idx = grid.index_of(k)
            assert grid.wavenumbers[idx[0]] == k

    def test_index_of_round_trip_2d(self):
        grid = GridSpec.create(2, 3)
        idx = grid.index_of((-2, 3))
        assert grid.wavenumbers[idx[0]] == -2
        assert grid.wavenumbers[idx[1]] == 3

    def test_index_of_rejects_out_of_band(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(ValueError, match="outside retained band"):
            grid.index_of(5)

    def test_index_of_rejects_wrong_arity(self):
        grid = GridSpec.create(2, 4)
        with pytest.raises(ValueError, match="does not match dim"):
            grid.index_of((1, 2, 3))


class TestTransforms:
    def test_cosine_mode_coefficients(self):
        """cos(kx) = (e^{ikx} + e^{-ikx}) / 2 has coefficients 1/2 at +-k."""
        grid = GridSpec.create(1, 8)
        x = grid.nodes
        f = from_physical(np.cos(3 * x), grid)
        assert f.coeff(3) == pytest.approx(0.5, abs=1e-14)
        assert f.coeff(-3) == pytest.approx(0.5, abs=1e-14)
        assert abs(f.coeff(2)) < 1e-14

    def test_sine_mode_coefficients(self):
        """sin(kx) has coefficients -+ i/2 at +-k."""
        grid = GridSpec.create(1, 8)
        x = grid.nodes
        f = from_physical(np.sin(2 * x), grid)
        assert f.coeff(2) == pytest.approx(-0.5j, abs=1e-14)
        assert f.coeff(-2) == pytest.approx(0.5j, abs=1e-14)

    def test_constant_mode(self):
        grid = GridSpec.create(1, 4)
        f = from_physical(np.full(grid.phys_shape, 2.5), grid)
        assert f.coeff(0) == pytest.approx(2.5, abs=1e-14)
        assert f.mean_value == pytest.approx(2.5, abs=1e-14)

    def test_2d_product_mode(self):
        """cos(2x) sin(y) decomposes into four corner coefficients."""
        grid = GridSpec.create(2, 4)
        x = grid.nodes
        xx, yy = np.meshgrid(x, x, indexing="ij")
        f = from_physical(np.cos(2 * xx) * np.sin(yy), grid)
        # (1/2)(e^{2ix}+e^{-2ix}) * (1/2i)(e^{iy}-e^{-iy})
        assert f.coeff((2, 1)) == pytest.approx(-0.25j, abs=1e-14)
        assert f.coeff((2, -1)) == pytest.approx(0.25j, abs=1e-14)
        assert f.coeff((-2, 1)) == pytest.approx(-0.25j, abs=1e-14)
        assert f.coeff((-2, -1)) == pytest.approx(0.25j, abs=1e-14)

    def test_to_physical_single_mode(self):
        grid = GridSpec.create(1, 6)
        f = field_from_modes(grid, [(4, 0.7, 0.0)])
        expected = 0.7 * np.sin(4 * grid.nodes)
        assert np.allclose(to_physical(f), expected, atol=1e-14)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_fields_1d(self, seed):
        grid = GridSpec.create(1, 9)
        f = random_field(grid, seed)
        back = from_physical(to_physical(f), grid)
        assert np.allclose(back.coeffs, f.coeffs, atol=1e-13)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_random_fields_2d(self, seed):
        grid = GridSpec.create(2, 5)
        f = random_field(grid, seed)
        back = from_physical(to_physical(f), grid)
        assert np.allclose(back.coeffs, f.coeffs, atol=1e-13)

    def test_from_physical_rejects_complex(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(ValueError, match="real"):
            from_physical(np.zeros(grid.phys_shape, dtype=complex), grid)

    def test_from_physical_rejects_wrong_shape(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(ValueError, match="shape"):
            from_physical(np.zeros(7), grid)

    def test_imag_residue_is_rounding_level(self):
        """The full complex inverse of a real field's spectrum is real to
        rounding, so the k_d < 0 half that to_physical skips adds nothing."""
        grid = GridSpec.create(1, 12)
        f = random_field(grid, seed=7)
        assert np.max(np.abs(reference_inverse(grid, f.coeffs).imag)) < 1e-13

    def test_hermitian_symmetry_of_real_fields(self):
        grid = GridSpec.create(2, 4)
        f = random_field(grid, seed=11)
        assert f.is_hermitian()
        flipped = np.conj(f.coeffs[::-1, ::-1])
        assert np.allclose(flipped, f.coeffs, atol=1e-15)


def hermitian_coeffs(grid, seed):
    """Random coefficient array made exactly Hermitian by averaging."""
    rng = np.random.default_rng(seed)
    shape = grid.coeff_shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flipped = np.conj(raw[::-1] if grid.dim == 1 else raw[::-1, ::-1])
    return 0.5 * (raw + flipped)


def full_fft_bins(grid):
    """Index of every retained wavenumber in numpy's full FFT layout, plus
    the node-offset phase (-1)^(k_1 + ... + k_d)."""
    k = grid.wavenumbers
    bins = k % grid.phys_points_per_axis
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    if grid.dim == 1:
        return (bins,), sign
    return np.ix_(bins, bins), np.outer(sign, sign)


def reference_inverse(grid, coeffs):
    """Full complex inverse FFT of the zero-padded coefficients."""
    embed, phase = full_fft_bins(grid)
    spec = np.zeros(grid.phys_shape, dtype=complex)
    spec[embed] = coeffs * phase * grid.phys_points_per_axis**grid.dim
    return np.fft.ifftn(spec)


def reference_forward(grid, samples):
    """Full complex forward FFT restricted to the retained modes."""
    embed, phase = full_fft_bins(grid)
    return np.fft.fftn(samples)[embed] * phase / samples.size


# (dim, M, padding): odd and even M, and padding 1 at the smallest even P.
# The last four 1D grids sit at the largest P of the dense 1D transform
# and just past it, where the FFT takes over, at padding 1 and 2.
CORE_GRIDS = [
    (1, 7, 2.0),
    (1, 8, 2.0),
    (1, 5, 1.0),
    (1, 6, 1.0),
    (1, _DENSE_MAX_POINTS // 2 - 1, 1.0),
    (1, (_DENSE_MAX_POINTS - 2) // 4, 2.0),
    (1, _DENSE_MAX_POINTS // 2, 1.0),
    (1, (_DENSE_MAX_POINTS + 2) // 4, 2.0),
    (2, 5, 2.0),
    (2, 6, 2.0),
    (2, 3, 1.0),
    (2, 4, 1.0),
]


class TestRealToComplexCore:
    """The half-spectrum transforms against full complex FFT references."""

    @pytest.mark.parametrize("dim, m, padding", CORE_GRIDS)
    def test_dense_path_only_on_small_1d_grids(self, dim, m, padding):
        """1D grids up to the bound carry the dense matrices; past it the
        pair is numpy's irfft/rfft, bit for bit; 2D grids never go dense.
        Both 1D paths ignore Im c_0, as irfft does."""
        grid = GridSpec.create(dim, m, padding_factor=padding)
        p = grid.phys_points_per_axis
        plan = _plan(grid)
        dense = dim == 1 and p <= _DENSE_MAX_POINTS
        assert (plan["dense_inverse"] is not None) is dense
        assert (plan["dense_forward"] is not None) is dense
        if dim == 1:
            half = hermitian_coeffs(grid, 4)[m:]
            skewed = half.copy()
            skewed[0] += 1j
            want = _phys_from_coeffs(grid, half).tobytes()
            assert _phys_from_coeffs(grid, skewed).tobytes() == want
        if dim == 1 and not dense:
            want = np.fft.irfft(half * plan["inverse"], n=p)
            assert _phys_from_coeffs(grid, half).tobytes() == want.tobytes()
            samples = np.random.default_rng(4).standard_normal(p)
            want = np.fft.rfft(samples)[: m + 1] * plan["forward"]
            assert _coeffs_from_phys(grid, samples).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, padding", [(8, 2.0), (_DENSE_MAX_POINTS // 2, 1.0)])
    def test_strided_1d_coefficients(self, m, padding):
        """A field whose coefficient array is a strided view samples like its
        contiguous copy, on both sides of the dense bound."""
        grid = GridSpec.create(1, m, padding_factor=padding)
        c = hermitian_coeffs(grid, 6)
        strided = np.zeros(2 * c.size, dtype=complex)[::2]
        strided[:] = c
        f = SpectralField(grid, strided)
        assert not f.coeffs.flags.c_contiguous
        assert to_physical(f).tobytes() == to_physical(SpectralField(grid, c)).tobytes()

    @pytest.mark.parametrize("dim, m, padding", CORE_GRIDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_inverse_matches_full_complex_ifft(self, dim, m, padding, seed):
        grid = GridSpec.create(dim, m, padding_factor=padding)
        c = hermitian_coeffs(grid, seed)
        got = to_physical(SpectralField(grid, c))
        ref = reference_inverse(grid, c)
        scale = float(np.sum(np.abs(c)))
        assert got.shape == grid.phys_shape
        assert not np.iscomplexobj(got)
        assert np.max(np.abs(got - ref.real)) <= 1e-13 * scale
        assert np.max(np.abs(ref.imag)) <= 1e-13 * scale

    @pytest.mark.parametrize("dim, m, padding", CORE_GRIDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forward_matches_full_complex_fft(self, dim, m, padding, seed):
        grid = GridSpec.create(dim, m, padding_factor=padding)
        samples = np.random.default_rng(seed).standard_normal(grid.phys_shape)
        got = from_physical(samples, grid).coeffs
        ref = reference_forward(grid, samples)
        scale = float(np.max(np.abs(samples)))
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("dim, m, padding", CORE_GRIDS)
    def test_forward_is_bitwise_hermitian(self, dim, m, padding):
        """Exact symmetry, including the k_2 = 0 column in 2D, which a complex
        FFT along the first axis leaves inexact."""
        grid = GridSpec.create(dim, m, padding_factor=padding)
        samples = np.random.default_rng(5).standard_normal(grid.phys_shape)
        c = from_physical(samples, grid).coeffs
        assert np.array_equal(c, np.conj(c[::-1] if dim == 1 else c[::-1, ::-1]))

    @pytest.mark.parametrize("dim, m, padding", CORE_GRIDS)
    def test_imag_residue_separates_hermitian_from_not(self, dim, m, padding):
        """A Hermitian spectrum passes is_hermitian and has a real full
        inverse; a skew of 0.5j at one mode fails is_hermitian and leaves an
        imaginary residue of order one in the full inverse."""
        grid = GridSpec.create(dim, m, padding_factor=padding)
        c = hermitian_coeffs(grid, 3)
        assert SpectralField(grid, c).is_hermitian()
        assert np.max(np.abs(reference_inverse(grid, c).imag)) <= 1e-13
        skewed = c.copy()
        skewed[grid.index_of(1 if dim == 1 else (1, 0))] += 0.5j
        assert not SpectralField(grid, skewed).is_hermitian()
        assert np.max(np.abs(reference_inverse(grid, skewed).imag)) > 0.1


# (M, padding) of the 2D forward checks: odd and even M, up to the benchmark's M=32.
WORKSPACE_2D_GRIDS = [(m, padding) for m in (4, 8, 32, 33) for padding in (1.0, 1.5, 2.0)]


class TestWorkspace:
    """The private transforms with a reused workspace against fresh arrays."""

    @pytest.mark.parametrize("m, padding", WORKSPACE_2D_GRIDS)
    def test_2d_forward_is_hermitian_and_near_rfft2(self, m, padding):
        """The forward runs its axis-0 FFT on the retained columns only,
        and on small grids its last-axis pass is a dense product, which
        rounds differently from rfft.  The half is within 1e-13 max|samples|
        of the retained bins of rfft2, the same bits with and without a
        workspace, and from_physical stays exactly Hermitian."""
        grid = GridSpec.create(2, m, padding_factor=padding)
        p = grid.phys_points_per_axis
        samples = np.random.default_rng(m).standard_normal(grid.phys_shape)
        spec = np.fft.rfft2(samples)
        sign = np.where(np.arange(-m, m + 1) % 2 == 0, 1.0, -1.0)
        want = np.concatenate((spec[-m:, : m + 1], spec[: m + 1, : m + 1]))
        want *= np.outer(sign, sign[m:]) / p**2
        got = _coeffs_from_phys(grid, samples)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(samples))
        assert _coeffs_from_phys(grid, samples, _Workspace(grid)).tobytes() == got.tobytes()
        c = from_physical(samples, grid).coeffs
        assert np.array_equal(c, np.conj(c[::-1, ::-1]))

    @pytest.mark.parametrize("dim, m, padding", CORE_GRIDS + [(2, 32, 2.0)])
    def test_reused_workspace_matches_fresh_arrays(self, dim, m, padding):
        """Inverse and forward through one workspace on fields A, B, A give
        the fresh-array results bitwise; the inverse's zero rows stay zero,
        and each forward half is a new array."""
        grid = GridSpec.create(dim, m, padding_factor=padding)
        halves = [hermitian_coeffs(grid, seed)[..., m:] for seed in (7, 8, 7)]
        work = _Workspace(grid)
        kept = []
        for half in halves:
            want_phys = _phys_from_coeffs(grid, half)
            got_phys = _phys_from_coeffs(grid, half, work)
            assert got_phys is work.phys
            assert got_phys.tobytes() == want_phys.tobytes()
            if dim == 2:
                p = grid.phys_points_per_axis
                assert not np.any(work.spec[m + 1 : p - m])
            got = _coeffs_from_phys(grid, got_phys, work)
            assert got.tobytes() == _coeffs_from_phys(grid, want_phys).tobytes()
            assert not np.shares_memory(got, work.rows)
            kept.append((got, got.copy()))
        for got, copy in kept:
            assert got.tobytes() == copy.tobytes()
        assert kept[0][0].tobytes() == kept[2][0].tobytes()


def _last_axis_entries(m, padding):
    """Entries of the 2D last-axis matrix, 2(M+1) x P, at M and padding."""
    return 2 * (m + 1) * GridSpec.create(2, m, padding_factor=padding).phys_points_per_axis


def _largest_dense_2d(padding):
    """Largest M whose 2D grid at `padding` takes the dense last-axis pass."""
    m = 1
    while _last_axis_entries(m + 1, padding) <= _DENSE_2D_MAX_ENTRIES:
        m += 1
    return m


# (M, padding) of the 2D dense last-axis checks: M = 8 and the benchmark's
# M = 32, and the largest dense grids at padding 2 and 1.
LAST_AXIS_GRIDS = [(8, 2.0), (32, 2.0), (_largest_dense_2d(2.0), 2.0), (_largest_dense_2d(1.0), 1.0)]


def _misaligned(a):
    """Copy of `a` starting 8 bytes past a 16-byte boundary."""
    buf = np.empty(a.nbytes + 24, dtype=np.uint8)
    start = -buf.ctypes.data % 16 + 8
    view = np.ndarray(a.shape, a.dtype, buffer=buf, offset=start)
    view[...] = a
    return view


class TestDenseLastAxis:
    """The 2D last-axis pass as row-blocked products with cached matrices."""

    @pytest.mark.parametrize("m, padding", LAST_AXIS_GRIDS[2:])
    @pytest.mark.parametrize("step", [0, 1])
    def test_dense_up_to_the_bound(self, m, padding, step):
        """The largest dense grids carry the matrices and the next M does
        not; both sides match the full complex FFT references."""
        grid = GridSpec.create(2, m + step, padding_factor=padding)
        dense = step == 0
        assert (_plan(grid)["last_inverse"] is not None) is dense
        assert (_last_axis_entries(m + step, padding) <= _DENSE_2D_MAX_ENTRIES) is dense
        c = hermitian_coeffs(grid, 1)
        got = _phys_from_coeffs(grid, c[..., m + step :])
        assert np.max(np.abs(got - reference_inverse(grid, c).real)) <= 1e-13 * np.sum(np.abs(c))
        samples = np.random.default_rng(1).standard_normal(grid.phys_shape)
        got = from_physical(samples, grid).coeffs
        assert np.max(np.abs(got - reference_forward(grid, samples))) <= 1e-13 * np.max(np.abs(samples))

    @pytest.mark.parametrize("m, padding", LAST_AXIS_GRIDS)
    def test_every_product_stays_on_one_blas_thread(self, m, padding, monkeypatch):
        """Every matrix product of the 2D passes, forward and inverse, with
        and without a workspace and on a stack, has m*n*k at most
        _ONE_THREAD_GEMM_SIZE, below which OpenBLAS runs a product on the
        calling thread, and at least two rows, so numpy never makes it a
        matrix-vector product, which OpenBLAS threads far earlier."""
        grid = GridSpec.create(2, m, padding_factor=padding)
        blocks = _plan(grid)["last_blocks"]
        shapes = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            shapes.append((a.shape, b.shape, kwargs["out"].shape))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        halves = np.stack([hermitian_coeffs(grid, seed)[..., m:] for seed in (0, 1)])
        samples = _phys_from_coeffs(grid, halves[0])
        _coeffs_from_phys(grid, samples)
        _coeffs_from_phys(grid, samples, _Workspace(grid))
        _phys_from_coeffs(grid, halves, _Workspace(grid, (2,)))
        assert len(shapes) == 5 * len(blocks)
        for (rows, inner), (inner_b, cols), out in shapes:
            assert inner == inner_b and out == (rows, cols)
            assert rows >= 2 and rows * inner * cols <= _ONE_THREAD_GEMM_SIZE
        p = grid.phys_points_per_axis
        assert [b.stop - b.start for b in blocks] == [rows for (rows, _), _, _ in shapes[: len(blocks)]]
        assert sum(b.stop - b.start for b in blocks) == p

    @pytest.mark.parametrize("m, padding", LAST_AXIS_GRIDS)
    def test_same_half_same_bits_across_calls(self, m, padding):
        """Inverse and forward of one half give one set of bits, fresh or
        through a workspace, repeated, interleaved with another field's
        transforms, and from a copy 8 bytes off a 16-byte boundary."""
        grid = GridSpec.create(2, m, padding_factor=padding)
        half, other = (hermitian_coeffs(grid, seed)[..., m:] for seed in (3, 4))
        phys = _phys_from_coeffs(grid, half)
        coeffs = _coeffs_from_phys(grid, phys)
        work = _Workspace(grid)
        for _ in range(2):
            for w in (work, None):
                assert _phys_from_coeffs(grid, half, w).tobytes() == phys.tobytes()
                assert _coeffs_from_phys(grid, phys, w).tobytes() == coeffs.tobytes()
                _coeffs_from_phys(grid, _phys_from_coeffs(grid, other, w), w)
        assert _phys_from_coeffs(grid, _misaligned(half)).tobytes() == phys.tobytes()
        assert _coeffs_from_phys(grid, _misaligned(phys)).tobytes() == coeffs.tobytes()

    def test_pair_loop_runs_on_one_thread(self):
        """A tight loop of 2D M=32 transform pairs uses no more process CPU
        time than wall time, within 1.5x: no second BLAS thread is busy."""
        grid = GridSpec.create(2, 32)
        half = hermitian_coeffs(grid, 2)[..., 32:]
        work = _Workspace(grid)

        def loop(seconds):
            wall, cpu = time.perf_counter(), time.process_time()
            while time.perf_counter() - wall < seconds:
                _coeffs_from_phys(grid, _phys_from_coeffs(grid, half, work), work)
            return time.perf_counter() - wall, time.process_time() - cpu

        loop(0.2)  # let BLAS threads started earlier in the process go idle
        wall, cpu = loop(0.5)
        assert cpu <= 1.5 * wall


# (dim, M): 1D grids on the dense path (M = 1, 32) and on the FFT path
# (M = 64, 100), and 2D grids, at the benchmark's M = 32 where P^2 exceeds
# numpy's 8192-element reduction buffer.
STACK_GRIDS = [(1, 1), (1, 32), (1, 64), (1, 100), (2, 8), (2, 32)]
# Stacks of one and two halves, of the recorder's 31-sample chunk at 1D
# M=32, and of 64; 2D M=32 stops at two, as its 64-row stack and workspace
# take about 40 MB.
STACK_CASES = [
    (dim, m, batch)
    for dim, m in STACK_GRIDS
    for batch in (1, 2, 31, 64)
    if (dim, m) != (2, 32) or batch <= 2
]


class TestStacks:
    """The private inverse, the norms and the L2 quadrature on a stack of
    fields: row b is, bit for bit, the result for field b alone."""

    @pytest.mark.parametrize("dim, m, batch", STACK_CASES)
    def test_inverse_rows_match_single_calls(self, dim, m, batch):
        grid = GridSpec.create(dim, m)
        full = np.stack([hermitian_coeffs(grid, seed) for seed in range(batch)])
        halves = full[..., m:]  # strided: each row skips its k_d < 0 half
        want = np.stack([_phys_from_coeffs(grid, half) for half in halves])
        assert want.shape == (batch,) + grid.phys_shape
        assert _phys_from_coeffs(grid, halves).tobytes() == want.tobytes()
        work = _Workspace(grid, (batch,))
        got = _phys_from_coeffs(grid, np.ascontiguousarray(halves), work)
        assert np.shares_memory(got, work.phys)
        assert got.tobytes() == want.tobytes()
        if dim == 2:
            p = grid.phys_points_per_axis
            assert not np.any(work.spec[:, m + 1 : p - m])

    @pytest.mark.parametrize("dim, m", STACK_GRIDS)
    def test_norm_and_quadrature_rows_match_single_fields(self, dim, m):
        grid = GridSpec.create(dim, m)
        full = np.stack([hermitian_coeffs(grid, seed) for seed in range(3)])
        orders = ((0.0, 1.0, 2.0, 4.0), (0.0, 1.0, 1.9, 2.0))
        wiener, sobolev = _coeff_norms(grid, full, *orders)
        samples = _phys_from_coeffs(grid, full[..., m:])
        l2 = l2_quadrature(grid, samples)
        for b, c in enumerate(full):
            one = norms(SpectralField(grid, c), *orders)
            assert wiener[b].tobytes() == one[0].tobytes()
            assert sobolev[b].tobytes() == one[1].tobytes()
            assert l2[b].tobytes() == np.float64(l2_quadrature(grid, samples[b])).tobytes()
        # One family alone: the other comes back empty, one row per field.
        only_wiener = _coeff_norms(grid, full, orders[0])
        only_sobolev = _coeff_norms(grid, full, (), orders[1])
        assert only_wiener[0].tobytes() == wiener.tobytes()
        assert only_sobolev[1].tobytes() == sobolev.tobytes()
        assert only_wiener[1].shape == only_sobolev[0].shape == (3, 0)


class TestFieldFromModes:
    def test_amplitude_and_phase(self):
        """a sin(kx + phase) at phase pi/2 is a cos(kx)."""
        grid = GridSpec.create(1, 8)
        f = field_from_modes(grid, [(5, 0.3, math.pi / 2)])
        expected = 0.3 * np.cos(5 * grid.nodes)
        assert np.allclose(to_physical(f), expected, atol=1e-14)

    def test_modes_superpose(self):
        grid = GridSpec.create(1, 8)
        f = field_from_modes(grid, [(1, 0.5, 0.0), (3, 0.25, 1.0)])
        x = grid.nodes
        expected = 0.5 * np.sin(x) + 0.25 * np.sin(3 * x + 1.0)
        assert np.allclose(to_physical(f), expected, atol=1e-14)

    def test_2d_mode(self):
        grid = GridSpec.create(2, 4)
        f = field_from_modes(grid, [((1, -2), 0.4, 0.0)])
        x = grid.nodes
        xx, yy = np.meshgrid(x, x, indexing="ij")
        assert np.allclose(to_physical(f), 0.4 * np.sin(xx - 2 * yy), atol=1e-14)

    def test_unrepresentable_mode_raises(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(ValueError, match="outside retained band"):
            field_from_modes(grid, [(5, 0.1, 0.0)])

    @pytest.mark.parametrize(
        "dim, k", [(1, -5), (1, 9), (2, (5, 0)), (2, (0, -5)), (2, (5, 5))]
    )
    def test_mode_beyond_band_raises_after_valid_modes(self, dim, k):
        """A mode with some |k_i| > M is refused, never dropped, also when
        representable modes come before it."""
        grid = GridSpec.create(dim, 4)
        valid = (1, 0.1, 0.0) if dim == 1 else ((1, 1), 0.1, 0.0)
        with pytest.raises(ValueError, match="outside retained band"):
            field_from_modes(grid, [valid, (k, 0.1, 0.0)])

    @pytest.mark.parametrize("dim, k", [(1, 0), (2, (0, 0))])
    @pytest.mark.parametrize("phase", [0.0, 1.0])
    @pytest.mark.parametrize("after_valid_mode", [False, True])
    def test_zero_wavenumber_raises(self, dim, k, phase, after_valid_mode):
        """sin(0.x + phase) is a constant: it would set the mean (phase 1)
        or add nothing at all (phase 0), so k = 0 is refused, alone or after
        a representable mode."""
        grid = GridSpec.create(dim, 4)
        modes = [(k, 0.05, phase)]
        if after_valid_mode:
            modes.insert(0, (1 if dim == 1 else (1, 1), 0.1, 0.0))
        with pytest.raises(ValueError, match="mean mode"):
            field_from_modes(grid, modes)

    def test_result_has_zero_mean(self):
        grid = GridSpec.create(1, 6)
        f = field_from_modes(grid, [(2, 0.3, 0.7)])
        assert f.has_zero_mean


class TestCalculus:
    def test_laplacian_eigenvalue_2d(self):
        """The march's |k|^4 table holds (|k|^2)^2 = 13^2 at k = (2, 3)."""
        grid = GridSpec.create(2, 5)
        assert _plan(grid)["k4"][grid.index_of((2, 3))] == 169.0

    def test_bilaplacian_eigenvalue(self):
        grid = GridSpec.create(1, 8)
        assert _plan(grid)["k4"][grid.index_of(2)] == 16.0

    def test_bilaplacian_is_laplacian_squared(self):
        """Every entry of the |k|^4 table is the square of the Laplacian
        symbol |k|^2 = k_1^2 + k_2^2 built from the grid's wavenumbers."""
        grid = GridSpec.create(2, 4)
        k = grid.wavenumbers.astype(float)
        ksq = k[:, None] ** 2 + k[None, :] ** 2
        assert np.array_equal(_plan(grid)["k4"], ksq**2)

    @pytest.mark.parametrize(
        "dim, k", [(1, 1), (1, 3), (1, 8), (2, (1, 0)), (2, (2, -3)), (2, (-4, 4))]
    )
    def test_k4_table_acts_as_bilaplacian_on_sines(self, dim, k):
        """Multiplying a sine's coefficients by the |k|^4 table multiplies
        its samples by |k|^4, up to the band edge k = M."""
        grid = GridSpec.create(dim, 8 if dim == 1 else 4)
        f = field_from_modes(grid, [(k, 1.0, 0.3)])
        lam = float(np.sum(np.square(k))) ** 2
        got = to_physical(SpectralField(grid, f.coeffs * _plan(grid)["k4"]))
        assert np.allclose(got, lam * to_physical(f), atol=1e-12 * lam)

    def test_with_zero_mean_pins_exactly(self):
        grid = GridSpec.create(1, 6)
        f = random_field(grid, seed=9)
        g = with_zero_mean(f)
        assert g.coeff(0) == 0.0
        assert g.has_zero_mean

    def test_require_zero_mean_raises_on_offset(self):
        grid = GridSpec.create(1, 4)
        f = from_physical(np.sin(grid.nodes) + 0.5, grid)
        with pytest.raises(ValueError, match="mean"):
            require_zero_mean(f)


class TestNorms:
    def test_wiener_of_single_sine(self):
        """|a sin(kx)|_alpha = |a| k^alpha: two coefficients of size |a|/2."""
        grid = GridSpec.create(1, 8)
        f = field_from_modes(grid, [(3, 0.4, 0.0)])
        assert wiener_norm(f, 0.0) == pytest.approx(0.4, rel=1e-13)
        assert wiener_norm(f, 1.0) == pytest.approx(0.4 * 3, rel=1e-13)
        assert wiener_norm(f, 4.0) == pytest.approx(0.4 * 81, rel=1e-13)

    def test_wiener_includes_mean_at_order_zero(self):
        """The 0^0 = 1 convention keeps the mean mode in the alpha = 0 sum."""
        grid = GridSpec.create(1, 4)
        f = from_physical(np.sin(grid.nodes) + 2.0, grid)
        assert wiener_norm(f, 0.0) == pytest.approx(3.0, rel=1e-13)
        assert wiener_norm(f, 2.0) == pytest.approx(1.0, rel=1e-13)

    def test_wiener_rejects_negative_order(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(ValueError, match="alpha"):
            wiener_norm(zero_field(grid), -1.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.5, 4.0])
    def test_wiener_and_sobolev_of_2d_sine(self, alpha):
        """For a sin(k.x) in 2D, |.|_alpha = |a| |k|^alpha and the H^alpha
        norm is that divided by sqrt(2), with |k| = 5 at k = (3, -4)."""
        grid = GridSpec.create(2, 5)
        f = field_from_modes(grid, [((3, -4), 0.2, 0.7)])
        want = 0.2 * 5.0**alpha
        assert wiener_norm(f, alpha) == pytest.approx(want, rel=1e-13)
        assert sobolev_norm(f, alpha) == pytest.approx(want / math.sqrt(2), rel=1e-13)

    def test_sobolev_of_single_sine(self):
        """H^alpha of a sin(kx) is |a| k^alpha / sqrt(2)."""
        grid = GridSpec.create(1, 8)
        f = field_from_modes(grid, [(2, 0.6, 0.0)])
        assert sobolev_norm(f, 0.0) == pytest.approx(0.6 / math.sqrt(2), rel=1e-13)
        assert sobolev_norm(f, 2.0) == pytest.approx(0.6 * 4 / math.sqrt(2), rel=1e-13)

    def test_l2_matches_quadrature(self):
        """Parseval: grid L2 of a sin(kx) is |a| sqrt(pi) in 1D."""
        grid = GridSpec.create(1, 8)
        f = field_from_modes(grid, [(5, 0.8, 0.3)])
        assert l2_norm(f) == pytest.approx(0.8 * math.sqrt(math.pi), rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_parseval_random_fields(self, seed):
        grid = GridSpec.create(1, 7)
        f = random_field(grid, seed)
        coeff_side = math.sqrt(2 * math.pi) * math.sqrt(
            float(np.sum(np.abs(f.coeffs) ** 2))
        )
        assert l2_norm(f) == pytest.approx(coeff_side, rel=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linf_bounded_by_wiener(self, seed):
        """Max pointwise value never exceeds the coefficient-sum norm."""
        grid = GridSpec.create(1, 11)
        f = random_field(grid, seed)
        assert linf_norm(f) <= wiener_norm(f, 0.0) * (1 + 1e-12) + 1e-15

    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(min_value=1e-8, max_value=1e6),
    )
    @settings(max_examples=30, deadline=None)
    def test_wiener_homogeneity(self, seed, scale):
        grid = GridSpec.create(1, 6)
        f = random_field(grid, seed)
        g = SpectralField(f.grid, f.coeffs * scale)
        assert wiener_norm(g, 1.0) == pytest.approx(scale * wiener_norm(f, 1.0), rel=1e-12)

    @given(sa=st.integers(0, 2**31), sb=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_wiener_triangle_inequality(self, sa, sb):
        grid = GridSpec.create(1, 6)
        f = random_field(grid, sa)
        g = random_field(grid, sb)
        both = SpectralField(grid, f.coeffs + g.coeffs)
        assert wiener_norm(both) <= (wiener_norm(f) + wiener_norm(g)) * (1 + 1e-12)

    def test_linf_of_sine(self):
        grid = GridSpec.create(1, 16, phys_points_per_axis=128)
        f = field_from_modes(grid, [(4, 0.9, 0.0)])
        # the collocation grid hits the sine's extrema when P is a multiple of 4k
        assert linf_norm(f) == pytest.approx(0.9, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cached_weights_give_bitwise_identical_norms(self, dim):
        """The per-(grid, alpha) weight tables reproduce the direct formulas
        bit for bit, on repeated calls too."""
        grid = GridSpec.create(dim, 6)
        f = random_field(grid, seed=13)
        k = grid.wavenumbers.astype(float)
        kmag = np.abs(k) if dim == 1 else np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
        a = np.abs(f.coeffs)
        for alpha in (0.0, 1.0, 1.9, 2.0, 4.0):
            direct = float(np.sum(kmag**alpha * a))
            assert wiener_norm(f, alpha) == direct
            assert wiener_norm(f, alpha) == direct
        for alpha in (0.0, 1.0, 1.9, 2.0, -1.0):
            w = np.ones_like(kmag) if alpha == 0 else np.zeros_like(kmag)
            if alpha != 0:
                w[kmag > 0] = kmag[kmag > 0] ** (2.0 * alpha)
            direct = float(math.sqrt(np.sum(w * a**2)))
            assert sobolev_norm(f, alpha) == direct
            assert sobolev_norm(f, alpha) == direct

    @pytest.mark.parametrize(
        "dim, m", [(1, 1), (1, 8), (1, 32), (1, 100), (2, 1), (2, 6), (2, 32), (2, 70)]
    )
    def test_multi_order_norms_equal_the_one_order_calls(self, dim, m):
        """norms() sums all orders at once along the flattened modes; each
        entry is the one-order wiener_norm/sobolev_norm bit for bit, also
        on 2D grids whose (2M+1)^2 modes exceed numpy's 8192-element
        reduction buffer (M = 70)."""
        grid = GridSpec.create(dim, m)
        f = random_field(grid, seed=dim * 1000 + m)
        wiener_orders = (0.0, 1.0, 2.0, 4.0, 0.5)
        sobolev_orders = (0.0, 1.0, 1.9, 2.0, -1.0)
        wiener, sobolev = norms(f, wiener_orders, sobolev_orders)
        assert wiener.shape == (5,) and sobolev.shape == (5,)
        for i, a in enumerate(wiener_orders):
            assert wiener[i].tobytes() == np.float64(wiener_norm(f, a)).tobytes()
        for i, a in enumerate(sobolev_orders):
            assert sobolev[i].tobytes() == np.float64(sobolev_norm(f, a)).tobytes()
        only_wiener, none = norms(f, wiener_orders=(2.0,))
        assert only_wiener[0] == wiener[2] and none.shape == (0,)

    def test_negative_wiener_order_refused_in_multi_order_call(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(ValueError, match="alpha >= 0"):
            norms(zero_field(grid), (0.0, -1.0))

    def test_zero_field_norms(self):
        grid = GridSpec.create(2, 3)
        z = zero_field(grid)
        assert wiener_norm(z) == 0.0
        assert sobolev_norm(z, 2.0) == 0.0
        assert l2_norm(z) == 0.0
        assert linf_norm(z) == 0.0

"""Tests for trajectory instrumentation, decay certification, and the
truncation study.

Synthetic time series with known closed-form content drive the fitting and
certification code, so every numeric expectation is computable by hand.
"""

import math

import numpy as np
import pytest

from crystalsurf.diagnostics import (
    _CHUNK_BYTES,
    RATE_FIT_FLOOR,
    SOBOLEV_ORDERS,
    WIENER_ORDERS,
    TimeSeries,
    TimeSeriesRecorder,
    TruncationResult,
    _chunk_rows,
    certify_decay,
    check_lyapunov_monotone,
    check_positivity,
    fit_decay_rate,
    hr_decay_fit,
    truncation_study,
)
from crystalsurf.models import ADL, EXPONENTIAL, SingularityError
from crystalsurf.spectral import (
    _DENSE_MAX_POINTS,
    GridSpec,
    SpectralField,
    field_from_modes,
    from_physical,
    l2_norm,
    linf_norm,
    sobolev_norm,
    to_physical,
    wiener_norm,
    zero_field,
)
from crystalsurf.theory import lyapunov, lyapunov_l2, lyapunov_quadrature


def synthetic_series(times, w0, kind=EXPONENTIAL, lyapunov_values=None,
                     min1pv=None, max1pv=None, sobolev=None):
    """TimeSeries with prescribed |v|_0 samples and filler elsewhere."""
    times = np.asarray(times, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    zeros = np.zeros_like(times)
    return TimeSeries(
        kind=kind,
        times=times,
        wiener={a: (w0 if a == 0.0 else zeros.copy()) for a in WIENER_ORDERS},
        sobolev=sobolev if sobolev is not None
        else {a: zeros.copy() for a in SOBOLEV_ORDERS},
        l2=zeros.copy(),
        linf=zeros.copy(),
        lyapunov=np.asarray(lyapunov_values, dtype=float)
        if lyapunov_values is not None else zeros.copy(),
        min_one_plus_v=np.asarray(min1pv, dtype=float)
        if min1pv is not None else np.ones_like(times),
        max_one_plus_v=np.asarray(max1pv, dtype=float)
        if max1pv is not None else np.ones_like(times),
    )


class TestTimeSeriesRecorder:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            TimeSeriesRecorder("bogus")

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_recorded_values_match_standalone_functions(self, kind):
        grid = GridSpec.create(1, 8)
        fields = [
            field_from_modes(grid, [(1, 0.3, 0.0)]),
            field_from_modes(grid, [(1, 0.2, 0.5), (3, 0.05, 0.0)]),
        ]
        recorder = TimeSeriesRecorder(kind)
        for i, v in enumerate(fields):
            recorder(0.5 * i, v)
        series = recorder.finalize()
        assert len(series) == 2
        assert series.kind == kind
        assert list(series.times) == [0.0, 0.5]
        for i, v in enumerate(fields):
            for a in WIENER_ORDERS:
                assert series.wiener[a][i] == wiener_norm(v, a)
            for a in SOBOLEV_ORDERS:
                assert series.sobolev[a][i] == sobolev_norm(v, a)
            assert series.l2[i] == l2_norm(v)
            assert series.linf[i] == linf_norm(v)
            assert series.lyapunov[i] == lyapunov(kind, v)
            s = to_physical(v)
            assert series.min_one_plus_v[i] == 1.0 + np.min(s)
            assert series.max_one_plus_v[i] == 1.0 + np.max(s)

    def test_singular_adl_sample_recorded_without_raising(self):
        """At amplitude 1.2 the surface 1 + v dips below zero: the recorder
        keeps the sample and the positivity check fails, while lyapunov_l2
        refuses the same field."""
        grid = GridSpec.create(1, 8)
        v = field_from_modes(grid, [(1, 1.2, 0.0)])
        recorder = TimeSeriesRecorder(ADL)
        recorder(0.0, v)
        series = recorder.finalize()
        assert series.min_one_plus_v[0] < 0
        assert series.lyapunov[0] == lyapunov_quadrature(ADL, grid, to_physical(v))
        assert check_positivity(series, 1.2) is False
        with pytest.raises(SingularityError, match="lyapunov_l2 undefined"):
            lyapunov_l2(v)

    def test_range_of_height_recorded(self):
        """With the point count divisible by four the nodes hit the sine
        extrema, so the recorded range is exact."""
        grid = GridSpec(1, 8, 36)
        recorder = TimeSeriesRecorder(ADL)
        recorder(0.0, field_from_modes(grid, [(1, 0.25, 0.0)]))
        series = recorder.finalize()
        assert series.min_one_plus_v[0] == pytest.approx(0.75, abs=1e-12)
        assert series.max_one_plus_v[0] == pytest.approx(1.25, abs=1e-12)

    def test_l2_matches_parseval_for_a_sine(self):
        grid = GridSpec.create(1, 8)
        recorder = TimeSeriesRecorder(EXPONENTIAL)
        recorder(0.0, field_from_modes(grid, [(2, 0.4, 0.1)]))
        series = recorder.finalize()
        assert series.l2[0] == pytest.approx(0.4 * math.sqrt(math.pi), rel=1e-12)


def bits(x) -> bytes:
    """The double's bytes, so that 0.0 and -0.0 (and NaN payloads) differ."""
    return np.float64(x).tobytes()


# (dim, M): 1D grids on the dense transform path (P <= _DENSE_MAX_POINTS)
# and past it, 2D grids, and M = 1 in both dimensions.
RECORDER_GRIDS = [(1, 1), (1, 8), (1, 32), (1, 64), (1, 100), (2, 1), (2, 4), (2, 8)]


class TestOnePassRecorder:
    """Every recorded column is, bit for bit, what the public one-quantity
    functions give for the same field."""

    def test_grids_cover_both_1d_transform_paths(self):
        points = [GridSpec.create(d, m).phys_points_per_axis for d, m in RECORDER_GRIDS if d == 1]
        assert min(points) <= _DENSE_MAX_POINTS < max(points)

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    @pytest.mark.parametrize("dim, m", RECORDER_GRIDS)
    def test_every_column_matches_the_public_functions(self, dim, m, kind):
        grid = GridSpec.create(dim, m)
        rng = np.random.default_rng(100 * dim + m)
        fields = [
            from_physical(scale * rng.standard_normal(grid.phys_shape), grid)
            for scale in (0.2, 0.05, 1e-9)
        ]
        fields.append(zero_field(grid))
        recorder = TimeSeriesRecorder(kind)
        for i, v in enumerate(fields):
            recorder(0.25 * i, v)
        series = recorder.finalize()
        assert len(series) == len(fields)
        for i, v in enumerate(fields):
            s = to_physical(v)
            assert bits(series.times[i]) == bits(0.25 * i)
            for a in WIENER_ORDERS:
                assert bits(series.wiener[a][i]) == bits(wiener_norm(v, a))
            for a in SOBOLEV_ORDERS:
                assert bits(series.sobolev[a][i]) == bits(sobolev_norm(v, a))
            assert bits(series.l2[i]) == bits(l2_norm(v))
            assert bits(series.linf[i]) == bits(linf_norm(v))
            assert bits(series.lyapunov[i]) == bits(lyapunov_quadrature(kind, grid, s))
            assert bits(series.min_one_plus_v[i]) == bits(1.0 + np.min(s))
            assert bits(series.max_one_plus_v[i]) == bits(1.0 + np.max(s))

    def test_max_norm_of_negative_zero_samples_is_positive_zero(self, monkeypatch):
        """max(max s, -min s) is -0.0 when every sample is -0.0; the
        recorder reports +0.0, as max|s| does."""
        grid = GridSpec.create(1, 4)
        samples = np.full(grid.phys_shape, -0.0)
        monkeypatch.setattr(
            "crystalsurf.diagnostics._phys_from_coeffs",
            lambda grid, halves, work=None: np.full(halves.shape[:-1] + grid.phys_shape, -0.0),
        )
        recorder = TimeSeriesRecorder(EXPONENTIAL)
        recorder(0.0, zero_field(grid))
        assert bits(recorder.finalize().linf[0]) == bits(0.0) == bits(np.max(np.abs(samples)))

    def test_columns_are_contiguous_float_arrays(self):
        grid = GridSpec.create(1, 8)
        recorder = TimeSeriesRecorder(ADL)
        for i in range(3):
            recorder(i, field_from_modes(grid, [(1, 0.1 / (i + 1), 0.0)]))
        series = recorder.finalize()
        columns = [series.times, series.l2, series.linf, series.lyapunov,
                   series.min_one_plus_v, series.max_one_plus_v,
                   *series.wiener.values(), *series.sobolev.values()]
        for col in columns:
            assert col.dtype == np.float64 and col.shape == (3,)
            assert col.flags.c_contiguous
        assert list(series.wiener) == list(WIENER_ORDERS)
        assert list(series.sobolev) == list(SOBOLEV_ORDERS)

    def test_empty_recorder_finalizes_to_empty_columns(self):
        series = TimeSeriesRecorder(EXPONENTIAL).finalize()
        assert len(series) == 0
        assert series.wiener[0.0].shape == (0,) and series.max_one_plus_v.shape == (0,)


def series_table(series: TimeSeries) -> np.ndarray:
    """The series as (samples, 14) rows, in the recorder's column order."""
    return np.column_stack([
        series.times, *series.wiener.values(), *series.sobolev.values(), series.l2,
        series.linf, series.lyapunov, series.min_one_plus_v, series.max_one_plus_v,
    ])


def public_row(kind: str, v) -> list[float]:
    """The 13 columns after t, from the public one-quantity functions."""
    s = to_physical(v)
    return [
        *(wiener_norm(v, a) for a in WIENER_ORDERS),
        *(sobolev_norm(v, a) for a in SOBOLEV_ORDERS),
        l2_norm(v),
        linf_norm(v),
        lyapunov_quadrature(kind, v.grid, s),
        1.0 + np.min(s),
        1.0 + np.max(s),
    ]


def differing(got: np.ndarray, want: np.ndarray) -> list:
    """(row, column) of every entry whose bits differ."""
    assert got.shape == want.shape
    return np.argwhere(got.view(np.int64) != want.view(np.int64)).tolist()


class TestChunkedRecorder:
    """The recorder buffers samples and computes their columns once per
    chunk; every number is still, bit for bit, the one-field value."""

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    @pytest.mark.parametrize("dim, m", RECORDER_GRIDS + [(2, 32)])
    def test_sample_counts_around_chunk_boundaries(self, dim, m, kind):
        grid = GridSpec.create(dim, m)
        rows = _chunk_rows(grid)
        rng = np.random.default_rng(10 * dim + m)
        fields = [
            from_physical(scale * rng.standard_normal(grid.phys_shape), grid)
            for scale in (0.3, 0.1, 0.02, 1e-6, 1e-12, 0.05)
        ]
        fields.append(zero_field(grid))
        want_rows = np.array([public_row(kind, v) for v in fields])
        for count in sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows + 5}):
            recorder = TimeSeriesRecorder(kind)
            for i in range(count):
                recorder(0.25 * i, fields[i % len(fields)])
            got = series_table(recorder.finalize())
            picks = np.arange(count) % len(fields)
            want = np.column_stack([0.25 * np.arange(count), want_rows[picks]])
            assert differing(got, want) == [], f"{count} samples, {rows} per chunk"

    def test_recorder_copies_each_sample(self):
        """Changing a field's coefficients after the call leaves its row,
        still buffered, as recorded."""
        grid = GridSpec.create(1, 8)
        assert _chunk_rows(grid) > 1
        v = field_from_modes(grid, [(1, 0.3, 0.0), (2, 0.1, 0.4)])
        want = public_row(ADL, v)
        recorder = TimeSeriesRecorder(ADL)
        recorder(0.0, v)
        v.coeffs[:] = 0.0
        assert differing(series_table(recorder.finalize())[:, 1:], np.array([want])) == []

    def test_finalize_twice_and_record_after_it(self):
        grid = GridSpec.create(1, 8)
        fields = [field_from_modes(grid, [(1, 0.1 * (i + 1), 0.2 * i)]) for i in range(5)]
        recorder = TimeSeriesRecorder(EXPONENTIAL)
        for i in range(3):
            recorder(float(i), fields[i])
        first = series_table(recorder.finalize())
        assert differing(series_table(recorder.finalize()), first) == []
        for i in range(3, 5):
            recorder(float(i), fields[i])
        later = series_table(recorder.finalize())
        want = np.column_stack([np.arange(5.0), [public_row(EXPONENTIAL, v) for v in fields]])
        assert differing(later, want) == []
        assert differing(later[:3], first) == []

    def test_sample_on_another_grid_is_refused(self):
        recorder = TimeSeriesRecorder(EXPONENTIAL)
        recorder(0.0, zero_field(GridSpec.create(1, 8)))
        with pytest.raises(ValueError, match="grid"):
            recorder(0.5, zero_field(GridSpec.create(1, 16)))
        with pytest.raises(ValueError, match="grid"):
            recorder(0.5, zero_field(GridSpec.create(2, 8)))
        recorder(1.0, zero_field(GridSpec.create(1, 8)))
        assert list(recorder.finalize().times) == [0.0, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    @pytest.mark.parametrize("dim, m", [(1, 8), (1, 64), (2, 4)])
    def test_non_finite_sample_recorded_as_on_its_own(self, dim, m, bad):
        """A NaN, an inf or an overflowing coefficient passed straight to the
        recorder, between finite samples, is recorded bit for bit as the
        public functions give it (under the run's errstate)."""
        grid = GridSpec.create(dim, m)
        good = field_from_modes(grid, [(1 if dim == 1 else (1, 0), 0.2, 0.3)])
        c = good.coeffs.copy()
        k = grid.index_of(2 if dim == 1 else (2, 1))
        c[k] = bad
        c[tuple(2 * m - i for i in k)] = bad
        fields = [good, SpectralField(grid, c), good]
        recorder = TimeSeriesRecorder(ADL)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, v in enumerate(fields):
                recorder(float(i), v)
            got = series_table(recorder.finalize())
            want = np.column_stack([np.arange(3.0), [public_row(ADL, v) for v in fields]])
        assert not np.isfinite(got[1]).all()
        assert differing(got, want) == []

    @pytest.mark.parametrize("padding", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("m", [1, 8, 32, 47, 64, 100, 256])
    def test_1d_chunk_arrays_stay_below_the_mmap_threshold(self, m, padding):
        """Every buffer, and the largest temporaries (the Wiener weight
        product and the stacked samples), stay below glibc's 128 KiB mmap
        threshold; at 1D M=32 a chunk holds 31 samples."""
        grid = GridSpec.create(1, m, padding_factor=padding)
        rows = _chunk_rows(grid)
        recorder = TimeSeriesRecorder(EXPONENTIAL)
        recorder(0.0, zero_field(grid))
        work_block = recorder._work.phys.base
        temporaries = [
            rows * len(WIENER_ORDERS) * (2 * m + 1) * 8,
            rows * grid.phys_points_per_axis * 8,
        ]
        sizes = [recorder._coeffs.nbytes, recorder._block.nbytes, work_block.nbytes, *temporaries]
        assert max(sizes) < 128 * 1024
        assert max(temporaries) <= _CHUNK_BYTES
        if (m, padding) == (32, 2.0):
            assert rows == 31
        assert _chunk_rows(GridSpec.create(2, 32)) == 1


class TestFitDecayRate:
    def test_recovers_exact_exponential(self):
        t = np.linspace(0.0, 2.0, 40)
        assert fit_decay_rate(t, 3.0 * np.exp(-2.5 * t)) == pytest.approx(2.5, rel=1e-10)

    def test_leading_transient_dropped(self):
        """The first tenth of the samples is excluded from the fit, so a
        corrupted start does not bias the rate."""
        t = np.linspace(0.0, 2.0, 40)
        values = 3.0 * np.exp(-2.5 * t)
        values[:4] = 5.0
        assert fit_decay_rate(t, values) == pytest.approx(2.5, rel=1e-10)

    def test_floor_samples_ignored(self):
        t = np.linspace(0.0, 2.0, 40)
        values = 3.0 * np.exp(-2.5 * t)
        values[-10:] = 1e-16
        assert fit_decay_rate(t, values) == pytest.approx(2.5, rel=1e-10)

    @pytest.mark.parametrize(
        "values",
        [np.zeros(30), np.full(30, 1e-16), np.array([1.0])],
        ids=["zeros", "below-floor", "single-sample"],
    )
    def test_degenerate_input_gives_infinite_rate(self, values):
        t = np.linspace(0.0, 1.0, len(values))
        assert fit_decay_rate(t, values) == float("inf")

    def test_floor_constant(self):
        assert RATE_FIT_FLOOR == 1e-13


class TestCertifyDecay:
    def test_trajectory_inside_envelope_passes(self):
        t = np.linspace(0.0, 4.0, 60)
        x0, margin = 0.1, 0.05
        series = synthetic_series(t, x0 * np.exp(-margin * t) * (1.0 - 1e-9))
        cert = certify_decay(series, x0, margin)
        assert cert.verdict is True
        assert bool(np.all(cert.sample_ok)) is True
        assert cert.slack == 1e-6 * x0
        assert np.allclose(cert.envelope, x0 * np.exp(-margin * t))
        assert cert.fitted_rate == pytest.approx(margin, rel=1e-6)

    def test_single_excursion_fails_that_sample_only(self):
        t = np.linspace(0.0, 4.0, 60)
        x0, margin = 0.1, 0.05
        values = x0 * np.exp(-margin * t) * (1.0 - 1e-9)
        values[30] *= 1.5
        cert = certify_decay(synthetic_series(t, values), x0, margin)
        assert cert.verdict is False
        assert not cert.sample_ok[30]
        assert np.all(np.delete(cert.sample_ok, 30))

    def test_slack_override(self):
        t = np.linspace(0.0, 1.0, 10)
        x0, margin = 0.1, 0.5
        values = x0 * np.exp(-margin * t) + 0.01
        assert certify_decay(synthetic_series(t, values), x0, margin).verdict is False
        assert certify_decay(synthetic_series(t, values), x0, margin, slack=0.02).verdict is True

    @pytest.mark.parametrize("bad", [0.0, -0.3])
    def test_nonpositive_margin_rejected(self, bad):
        series = synthetic_series([0.0, 1.0], [0.1, 0.05])
        with pytest.raises(ValueError, match="positive margin"):
            certify_decay(series, 0.1, bad)


class TestMonotoneChecks:
    def test_lyapunov_decreasing_passes(self):
        series = synthetic_series([0, 1, 2], [1, 1, 1],
                                  lyapunov_values=[6.3, 6.2, 6.1])
        assert check_lyapunov_monotone(series) is True

    def test_lyapunov_uptick_within_slack_passes(self):
        base = 6.283185307179586
        series = synthetic_series([0, 1], [1, 1],
                                  lyapunov_values=[base, base * (1.0 + 1e-12)])
        assert check_lyapunov_monotone(series) is True

    def test_lyapunov_large_uptick_fails(self):
        series = synthetic_series([0, 1], [1, 1], lyapunov_values=[6.2, 6.3])
        assert check_lyapunov_monotone(series) is False



class TestHrDecayFit:
    def test_fits_each_recorded_order(self):
        t = np.linspace(0.0, 2.0, 30)
        sobolev = {
            0.0: np.exp(-1.0 * t),
            1.0: np.exp(-2.0 * t),
            1.9: np.exp(-3.0 * t),
            2.0: np.exp(-4.0 * t),
        }
        series = synthetic_series(t, np.exp(-t), sobolev=sobolev)
        for order, rate in [(0.0, 1.0), (1.0, 2.0), (1.9, 3.0), (2.0, 4.0)]:
            assert hr_decay_fit(series, order) == pytest.approx(rate, rel=1e-9)

    def test_unknown_order_rejected_with_available_list(self):
        series = synthetic_series([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError, match="not recorded; available"):
            hr_decay_fit(series, 3.5)


class TestCheckPositivity:
    def test_exponential_model_vacuously_true(self):
        series = synthetic_series([0, 1], [1, 1], kind=EXPONENTIAL,
                                  min1pv=[-0.5, -0.5], max1pv=[5.0, 5.0])
        assert check_positivity(series, 0.1) is True

    def test_adl_positive_and_bounded_passes(self):
        series = synthetic_series([0, 1], [1, 1], kind=ADL,
                                  min1pv=[0.9, 0.95], max1pv=[1.1, 1.05])
        assert check_positivity(series, 0.02) is True

    def test_adl_vanishing_height_fails(self):
        series = synthetic_series([0, 1], [1, 1], kind=ADL,
                                  min1pv=[0.9, 0.0], max1pv=[1.1, 1.1])
        assert check_positivity(series, 0.02) is False

    def test_adl_surface_bound_enforced_for_small_data(self):
        """For x0 < 1 the reconstructed surface must stay above 1/2, which
        is the same as 1 + v staying below 2."""
        series = synthetic_series([0, 1], [1, 1], kind=ADL,
                                  min1pv=[0.9, 0.9], max1pv=[1.1, 2.5])
        assert check_positivity(series, 0.02) is False
        assert check_positivity(series, 1.5) is True


class TestTruncationStudy:
    def grid_field(self):
        grid = GridSpec(1, 2, 32, padding_factor=1.0)
        return field_from_modes(grid, [(1, 0.5, 0.0)])

    def test_exponential_tail_collapses_factorially(self):
        result = truncation_study(EXPONENTIAL, self.grid_field(), (2, 6, 12, 20))
        assert result.orders == (2, 6, 12, 20)
        for earlier, later in zip(result.errors, result.errors[1:]):
            assert later < earlier
        assert result.errors[-1] < 1e-14

    def test_adl_tail_is_geometric_with_ratio_max_v(self):
        """For max|v| = 1/2 the adl series tail shrinks by about one half
        per order once the binomial prefactor growth has flattened out."""
        result = truncation_study(ADL, self.grid_field(), tuple(range(2, 31, 2)))
        assert 0.45 < result.mean_tail_ratio(min_order=10) < 0.55

    def test_orders_validation(self):
        v = self.grid_field()
        for bad in [(5,), (3, 3), (5, 3)]:
            with pytest.raises(ValueError, match="strictly increasing"):
                truncation_study(EXPONENTIAL, v, bad)

    def test_adl_requires_contractive_amplitude(self):
        grid = GridSpec(1, 2, 32, padding_factor=1.0)
        v = field_from_modes(grid, [(1, 1.1, 0.0)])
        with pytest.raises(ValueError, match="max\\|v\\| < 1"):
            truncation_study(ADL, v, (2, 4))

    def test_zero_field_yields_nan_tail_ratio(self):
        grid = GridSpec(1, 2, 32, padding_factor=1.0)
        result = truncation_study(EXPONENTIAL, zero_field(grid), (2, 3))
        assert result.errors == (0.0, 0.0)
        assert math.isnan(result.mean_tail_ratio())

    def test_synthetic_ratio_arithmetic(self):
        result = TruncationResult((2, 3, 4), (1.0, 0.5, 0.25), (0.5, 0.5))
        assert result.mean_tail_ratio() == pytest.approx(0.5, rel=1e-15)
        assert result.mean_tail_ratio(min_order=3) == pytest.approx(0.5, rel=1e-15)
        assert math.isnan(result.mean_tail_ratio(min_order=10))

    def test_ratio_normalized_per_unit_order(self):
        """A gap of two orders reports the per-order geometric factor."""
        v = self.grid_field()
        wide = truncation_study(EXPONENTIAL, v, (2, 4))
        assert wide.ratios[0] == pytest.approx(
            math.sqrt(wide.errors[1] / wide.errors[0]), rel=1e-12
        )

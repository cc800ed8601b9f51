"""Tests for trajectory instrumentation, decay certification, and the
refinement and truncation studies.

Synthetic time series with known closed-form content drive the fitting and
certification code, so every numeric expectation is computable by hand.
"""

import math

import numpy as np
import pytest

from crystalsurf.diagnostics import (
    RATE_FIT_FLOOR,
    SOBOLEV_ORDERS,
    WIENER_ORDERS,
    TimeSeries,
    TimeSeriesRecorder,
    TruncationResult,
    certify_decay,
    check_lyapunov_monotone,
    check_positivity,
    check_wiener_monotone,
    fit_decay_rate,
    hr_decay_fit,
    refinement_study,
    truncation_study,
)
from crystalsurf.models import ADL, EXPONENTIAL, SingularityError
from crystalsurf.spectral import (
    GridSpec,
    field_from_modes,
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

    def test_wiener_monotone_handles_zero_trajectory(self):
        series = synthetic_series([0, 1, 2], [0.0, 0.0, 0.0])
        assert check_wiener_monotone(series) is True

    def test_wiener_uptick_fails(self):
        series = synthetic_series([0, 1], [0.1, 0.2])
        assert check_wiener_monotone(series) is False


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


class TestRefinementStudy:
    LEVELS = [(4, None, 5e-3), (8, None, 2.5e-3), (16, None, 1.25e-3)]

    def test_differences_shrink_under_refinement(self):
        result = refinement_study(EXPONENTIAL, [(1, 0.1, 0.0)], 0.05, self.LEVELS)
        assert result.converged is True
        assert len(result.final_wiener0) == 3
        assert result.diffs[1] < result.diffs[0]

    def test_unrepresentable_modes_dropped_on_coarse_levels(self):
        """Initial data beyond a coarse level's band is dropped there, and
        refinement still converges once the band covers it."""
        result = refinement_study(
            EXPONENTIAL, [(1, 0.1, 0.0), (6, 0.02, 0.0)], 0.05, self.LEVELS
        )
        assert result.converged is True
        assert result.diffs[1] < result.diffs[0]

    def test_needs_two_levels(self):
        with pytest.raises(ValueError, match="at least two levels"):
            refinement_study(EXPONENTIAL, [(1, 0.1, 0.0)], 0.05, [(4, None, 1e-3)])


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

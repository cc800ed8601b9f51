"""Tests for the two model right-hand sides and their series.

The central oracle is a direct discrete-Fourier evaluation of
bilaplacian(g(v)) with explicit O(P * K) loops: slow, obviously correct,
and sharing no code with the transform layer.  Both full right-hand sides
must match it to rounding.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from crystalsurf.models import (
    ADL,
    ADL_SINGULAR_FLOOR,
    DEFAULT_TRUNCATION_ORDER,
    EXACT_TAIL_ARGUMENT,
    EXPONENTIAL,
    FULL,
    MAX_TRUNCATION_ORDER,
    TRUNCATED,
    ModelConfig,
    _SERIES_COEFFICIENT,
    SingularityError,
    _horner,
    _series_coefficients,
    adl_series_partial_sum,
    exact_tail_bound,
    exp_series_partial_sum,
    linear_coefficient,
    _check_adl_positivity,
    _superlinear_pointwise,
    nonlinear_remainder,
    remainder_fn,
    rhs,
)
from crystalsurf.spectral import (
    GridSpec,
    SpectralField,
    _coeffs_from_phys,
    _plan,
    field_from_modes,
    from_physical,
    to_physical,
    wiener_norm,
)
from crystalsurf.stepper import StepperConfig, _Stepper


def direct_rhs_coeffs(v, kind):
    """Independent rhs oracle: explicit DFT of bilaplacian(g(v)).

    Evaluates v on the nodes by direct summation over modes, applies the
    pointwise nonlinearity, projects back with explicit quadrature, and
    weights by |k|^4.  Matches the solver's aliasing model by construction
    because both project P-point samples onto the retained modes.
    """
    grid = v.grid
    ks = grid.wavenumbers
    if grid.dim == 1:
        x = grid.nodes
        v_phys = np.zeros_like(x)
        for i, k in enumerate(ks):
            v_phys = v_phys + (v.coeffs[i] * np.exp(1j * k * x)).real
        g = np.exp(-v_phys) if kind == EXPONENTIAL else (1.0 + v_phys) ** -3
        out = np.zeros_like(v.coeffs)
        p = grid.phys_points_per_axis
        for i, k in enumerate(ks):
            out[i] = np.sum(g * np.exp(-1j * k * x)) / p * k**4
        return out
    x = grid.nodes
    xx, yy = np.meshgrid(x, x, indexing="ij")
    v_phys = np.zeros_like(xx)
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            v_phys = v_phys + (v.coeffs[i, j] * np.exp(1j * (k1 * xx + k2 * yy))).real
    g = np.exp(-v_phys) if kind == EXPONENTIAL else (1.0 + v_phys) ** -3
    out = np.zeros_like(v.coeffs)
    p = grid.phys_points_per_axis
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            quad = np.sum(g * np.exp(-1j * (k1 * xx + k2 * yy))) / p**2
            out[i, j] = quad * float(k1**2 + k2**2) ** 2
    return out


class TestModelConfig:
    def test_linear_coefficients(self):
        assert linear_coefficient(EXPONENTIAL) == 1.0
        assert linear_coefficient(ADL) == 3.0
        with pytest.raises(ValueError, match="^unknown model kind 'bogus'$"):
            linear_coefficient("bogus")

    def test_config_exposes_linear_coefficient(self):
        grid = GridSpec.create(1, 4)
        assert ModelConfig(EXPONENTIAL, grid).linear_coefficient == 1.0
        assert ModelConfig(ADL, grid).linear_coefficient == 3.0

    def test_rejects_unknown_kind(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(ValueError, match="kind"):
            ModelConfig("cubic", grid)

    def test_rejects_unknown_mode(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(ValueError, match="mode"):
            ModelConfig(EXPONENTIAL, grid, mode="padded")

    def test_rejects_negative_truncation_order(self):
        grid = GridSpec.create(1, 4)
        with pytest.raises(ValueError, match="truncation_order"):
            ModelConfig(EXPONENTIAL, grid, mode="truncated", truncation_order=-1)

    def test_truncation_order_up_to_the_cap(self):
        """Past the cap every exp coefficient is 0.0; one past it is refused."""
        grid = GridSpec.create(1, 4)
        for kind in (EXPONENTIAL, ADL):
            cfg = ModelConfig(kind, grid, mode="truncated", truncation_order=MAX_TRUNCATION_ORDER)
            assert cfg.truncation_order == MAX_TRUNCATION_ORDER
            over = MAX_TRUNCATION_ORDER + 1
            with pytest.raises(ValueError, match=f"<= {MAX_TRUNCATION_ORDER}, got {over}"):
                ModelConfig(kind, grid, mode="truncated", truncation_order=over)
        assert _SERIES_COEFFICIENT[EXPONENTIAL](MAX_TRUNCATION_ORDER + 1) == 0.0

    def test_default_truncation_order(self):
        grid = GridSpec.create(1, 4)
        cfg = ModelConfig(EXPONENTIAL, grid, mode="truncated")
        assert cfg.truncation_order == DEFAULT_TRUNCATION_ORDER


class TestSeriesPartialSums:
    @pytest.mark.parametrize("order", [0, 1, 2, 5, 9])
    def test_exp_partial_sum_matches_term_sum(self, order):
        x = np.array([-0.4, -0.1, 0.0, 0.2, 0.5])
        expected = np.array(
            [math.fsum((-xi) ** j / math.factorial(j) for j in range(order + 1)) for xi in x]
        )
        assert np.allclose(exp_series_partial_sum(x, order), expected, atol=1e-15)

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 9])
    def test_adl_partial_sum_matches_term_sum(self, order):
        v = np.array([-0.3, -0.05, 0.0, 0.1, 0.4])
        expected = np.array(
            [
                math.fsum(
                    (-1) ** j * math.comb(j + 2, 2) * vi**j for j in range(order + 1)
                )
                for vi in v
            ]
        )
        assert np.allclose(adl_series_partial_sum(v, order), expected, atol=1e-13)

    def test_exp_partial_sum_converges(self):
        x = np.array([0.3])
        assert exp_series_partial_sum(x, 25)[0] == pytest.approx(math.exp(-0.3), rel=1e-15)

    def test_exp_partial_sum_past_the_largest_float_factorial(self):
        """171! overflows a float (failed before: OverflowError).  1/j!
        then rounds once from the integer quotient, to 0.0 from j = 178;
        up to 170 the coefficients keep the float quotient's bits."""
        coefficient = _SERIES_COEFFICIENT[EXPONENTIAL]
        assert [coefficient(j) for j in range(171)] == [1.0 / math.factorial(j) for j in range(171)]
        assert 0.0 < coefficient(171) == float(Fraction(1, math.factorial(171))) < np.finfo(float).tiny
        assert coefficient(178) == 0.0
        x = np.array([-0.4, -0.1, 0.0, 0.2, 0.5])
        for order in (171, 178, 400):
            assert exp_series_partial_sum(x, order).tobytes() == exp_series_partial_sum(x, 170).tobytes()

    def test_adl_coefficients_are_the_signed_triangular_numbers(self):
        """a_j = (-1)^j C(j+2, j) = (-1)^j (j+1)(j+2)/2 up to order 400."""
        want = tuple(float((-1) ** j * ((j + 1) * (j + 2) // 2)) for j in range(401))
        assert _series_coefficients(ADL, 400) == want

    @staticmethod
    def _uncached_horner(kind, x, order, low):
        coefficient = _SERIES_COEFFICIENT[kind]
        acc = np.full_like(x, coefficient(order))
        for j in range(order - 1, low - 1, -1):
            acc = acc * x + coefficient(j)
        return acc

    @pytest.mark.parametrize("order", [2, 20, 60, 171, 200])
    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_cached_coefficients_keep_the_bits(self, kind, order):
        x = np.linspace(-0.6, 0.6, 131)
        for low in (0, 2):
            want = self._uncached_horner(kind, x, order, low)
            assert _horner(kind, x, order, low).tobytes() == want.tobytes()

    def test_second_evaluation_computes_no_coefficient(self, monkeypatch):
        """The coefficients are made once per (kind, order), for every low."""
        calls = []
        for kind, coefficient in list(_SERIES_COEFFICIENT.items()):
            monkeypatch.setitem(
                _SERIES_COEFFICIENT, kind, lambda j, c=coefficient: calls.append(j) or c(j)
            )
        _series_coefficients.cache_clear()
        try:
            x = np.linspace(-0.3, 0.3, 17)
            for kind in (EXPONENTIAL, ADL):
                first = _horner(kind, x, 60, low=2)
                made = len(calls)
                assert made > 0
                assert _horner(kind, x, 60, low=2).tobytes() == first.tobytes()
                assert _horner(kind, x, 60).size == x.size
                assert len(calls) == made
        finally:
            _series_coefficients.cache_clear()

    def test_adl_partial_sum_converges(self):
        v = np.array([0.3])
        assert adl_series_partial_sum(v, 60)[0] == pytest.approx(1.3**-3, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 7, 20])
    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_truncated_remainder_is_the_partial_sum_less_its_low_terms(self, kind, order):
        """The remainder the solver evaluates in truncated mode is the public
        partial sum g_N(v) minus g(0) = 1 and g'(0) v = -c v."""
        v = np.linspace(-0.5, 0.5, 201)
        partial_sum = exp_series_partial_sum if kind == EXPONENTIAL else adl_series_partial_sum
        cfg = ModelConfig(kind, GridSpec.create(1, 8), "truncated", order)
        want = partial_sum(v, order) - 1.0 + linear_coefficient(kind) * v
        assert np.allclose(_superlinear_pointwise(cfg, v), want, rtol=0.0, atol=1e-14)


STEP_START = 0.25


def _remainder_at(cfg, v):
    return nonlinear_remainder(cfg, v).coeffs


def _fused_step_at(cfg, v):
    stepper = _Stepper(cfg, StepperConfig(dt=1e-3))
    assert stepper.fused
    return stepper.advance(v.coeffs[..., cfg.grid.modes_per_axis :], STEP_START)


def _stage_step_at(cfg, v):
    stepper = _Stepper(cfg, StepperConfig(dt=1e-3), remainder_fn(cfg))
    assert not stepper.fused
    return stepper.advance(v.coeffs[..., cfg.grid.modes_per_axis :], STEP_START)


# The sites that evaluate the pointwise remainder, each with the time a
# singularity found there carries: a step tags its start.
EVALUATION_SITES = pytest.mark.parametrize(
    "evaluate_at,time",
    [(_remainder_at, None), (_fused_step_at, STEP_START), (_stage_step_at, STEP_START)],
    ids=["nonlinear_remainder", "fused_step", "stage_step"],
)


class TestRemainder:
    def test_truncated_order_one_is_exactly_zero(self):
        """Cancelling constant and linear terms analytically leaves nothing."""
        grid = GridSpec.create(1, 8)
        v = field_from_modes(grid, [(2, 0.3, 0.0)])
        for kind in (EXPONENTIAL, ADL):
            cfg = ModelConfig(kind, grid, mode="truncated", truncation_order=1)
            out = nonlinear_remainder(cfg, v)
            assert np.all(out.coeffs == 0.0)

    def test_truncated_order_zero_cancels_linear_part(self):
        """At order 0 the nonlinearity is constant, so the rhs vanishes."""
        grid = GridSpec.create(1, 8)
        v = field_from_modes(grid, [(3, 0.2, 0.0)])
        for kind in (EXPONENTIAL, ADL):
            cfg = ModelConfig(kind, grid, mode="truncated", truncation_order=0)
            out = rhs(cfg, v)
            assert np.max(np.abs(out.coeffs)) < 1e-12

    @pytest.mark.parametrize(
        "kind,final_tol",
        [(EXPONENTIAL, 1e-12), (ADL, 1e-7)],
        ids=[EXPONENTIAL, ADL],
    )
    def test_truncated_converges_to_full(self, kind, final_tol):
        """The factorial tail collapses fast; the geometric one at rate 0.3."""
        grid = GridSpec.create(1, 6)
        v = field_from_modes(grid, [(1, 0.3, 0.0)])
        full = rhs(ModelConfig(kind, grid), v)
        errs = []
        for order in (2, 5, 10, 25):
            cfg = ModelConfig(kind, grid, mode="truncated", truncation_order=order)
            errs.append(wiener_norm(SpectralField(grid, rhs(cfg, v).coeffs - full.coeffs)))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < final_tol

    def test_remainder_is_second_order_small(self):
        """Halving the amplitude divides the remainder by about four."""
        grid = GridSpec.create(1, 8)
        cfg = ModelConfig(EXPONENTIAL, grid)
        big = nonlinear_remainder(cfg, field_from_modes(grid, [(1, 1e-3, 0.0)]))
        small = nonlinear_remainder(cfg, field_from_modes(grid, [(1, 5e-4, 0.0)]))
        ratio = wiener_norm(big) / wiener_norm(small)
        assert ratio == pytest.approx(4.0, rel=2e-3)

    def test_exp_remainder_leading_term(self):
        """For tiny v the remainder is bilaplacian(v^2 / 2) up to O(v^3)."""
        grid = GridSpec.create(1, 8)
        cfg = ModelConfig(EXPONENTIAL, grid)
        amp = 1e-4
        v = field_from_modes(grid, [(1, amp, 0.0)])
        got = nonlinear_remainder(cfg, v)
        lead = from_physical(to_physical(v) ** 2 / 2.0, grid).coeffs * _plan(grid)["k4"]
        gap = wiener_norm(SpectralField(grid, got.coeffs - lead))
        assert gap < 50 * amp**3

    @EVALUATION_SITES
    def test_adl_full_guards_positivity(self, evaluate_at, time):
        grid = GridSpec.create(1, 8)
        cfg = ModelConfig(ADL, grid)
        v = field_from_modes(grid, [(1, 1.2, 0.0)])
        with pytest.raises(SingularityError, match="min\\(1 \\+ v\\)") as err:
            evaluate_at(cfg, v)
        assert err.value.time == time

    @EVALUATION_SITES
    def test_adl_truncated_has_no_guard(self, evaluate_at, time):
        """Polynomial truncations are defined for any amplitude."""
        grid = GridSpec.create(1, 8)
        cfg = ModelConfig(ADL, grid, mode="truncated", truncation_order=6)
        v = field_from_modes(grid, [(1, 1.2, 0.0)])
        assert np.all(np.isfinite(evaluate_at(cfg, v)))

    def test_singularity_error_carries_time(self):
        err = SingularityError("boom", time=1.5)
        assert err.time == 1.5
        assert err.step_end is None
        assert SingularityError("boom").time is None
        assert SingularityError("boom", time=1.5, step_end=1.75).step_end == 1.75

    def test_rejects_mismatched_grid(self):
        cfg = ModelConfig(EXPONENTIAL, GridSpec.create(1, 8))
        v = field_from_modes(GridSpec.create(1, 4), [(1, 0.1, 0.0)])
        with pytest.raises(ValueError, match="grid"):
            rhs(cfg, v)

    def test_rejects_nonzero_mean(self):
        grid = GridSpec.create(1, 8)
        cfg = ModelConfig(EXPONENTIAL, grid)
        v = from_physical(np.sin(grid.nodes) + 0.2, grid)
        with pytest.raises(ValueError, match="mean"):
            rhs(cfg, v)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_half_remainder_matches_public_pipeline(self, dim, kind):
        """remainder_fn maps the k_d >= 0 half to the same half, bitwise equal
        to to_physical -> pointwise -> from_physical -> x k^4 on the full
        layout, for random Hermitian fields."""
        grid = GridSpec.create(dim, 8 if dim == 1 else 5)
        m = grid.modes_per_axis
        cfg = ModelConfig(kind, grid)
        k4 = _plan(grid)["k4"]
        rng = np.random.default_rng(20 + dim)
        for _ in range(5):
            v = from_physical(0.05 * rng.standard_normal(grid.phys_shape), grid)
            w = _superlinear_pointwise(cfg, to_physical(v))
            want = (from_physical(w, grid).coeffs * k4)[..., m:]
            got = remainder_fn(cfg)(v.coeffs[..., m:])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    @pytest.mark.parametrize("mode", [FULL, TRUNCATED])
    def test_evaluator_workspace_does_not_leak_between_calls(self, dim, kind, mode):
        """One evaluator called on A, B, then A: the first result is left
        unchanged by the later calls, the third equals it bitwise, and every
        result equals the allocating path bitwise."""
        grid = GridSpec.create(dim, 8 if dim == 1 else 6)
        m = grid.modes_per_axis
        cfg = ModelConfig(kind, grid, mode=mode, truncation_order=6)
        k4 = _plan(grid)["k4"][..., m:]
        rng = np.random.default_rng(40 + dim)
        fields = [from_physical(0.05 * rng.standard_normal(grid.phys_shape), grid) for _ in "AB"]
        fields.append(fields[0])
        evaluate = remainder_fn(cfg)
        results = []
        for v in fields:
            got = evaluate(v.coeffs[..., m:])
            w = _superlinear_pointwise(cfg, to_physical(v))
            want = _coeffs_from_phys(grid, w) * k4
            assert got.tobytes() == want.tobytes()
            results.append((got, got.copy()))
        for got, copy in results:
            assert got.tobytes() == copy.tobytes()
        assert results[2][0].tobytes() == results[0][0].tobytes()

    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.one_of(
                st.floats(-1.0 - 1e-6, -1.0 + 1e-6),
                st.floats(-1.0 - 1e-15, -1.0 + 1e-15),
                st.floats(-2.0, 0.5),
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_positivity_floor_is_min_of_one_plus_v(self, values):
        """1 + min(v), the floor the guard reports, is min(1 + v) bit for
        bit: rounding of 1 + x is monotone in x."""
        want = np.min(1.0 + values)
        assert (1.0 + np.min(values)).tobytes() == want.tobytes()
        if want <= ADL_SINGULAR_FLOOR:
            with pytest.raises(SingularityError, match=re.escape(f"= {want:.3e} on")):
                _check_adl_positivity(values)
        else:
            _check_adl_positivity(values)

    def test_singular_floor_between_thin_and_blown_up_surfaces(self):
        """ADL_SINGULAR_FLOOR is 1e-8: where min(1 + v) = 1e-5 the surface
        is thin but (1 + v)^-3 = 1e15 is a finite, resolvable value, so the
        full adl remainder evaluates; at min(1 + v) = 1e-9 the height
        u = 1/(1 + v) is 1e9 and the state counts as a blow-up."""
        grid = GridSpec.create(1, 4)
        cfg = ModelConfig(ADL, grid)
        for floor, singular in ((1e-5, False), (1e-9, True)):
            v = np.full(grid.phys_shape, 0.1)
            v[3] = floor - 1.0
            if singular:
                with pytest.raises(SingularityError, match="adl nonlinearity singular"):
                    _superlinear_pointwise(cfg, v)
            else:
                assert np.all(np.isfinite(_superlinear_pointwise(cfg, v)))

    def test_rhs_has_zero_mean(self):
        grid = GridSpec.create(1, 8)
        for kind in (EXPONENTIAL, ADL):
            out = rhs(ModelConfig(kind, grid), field_from_modes(grid, [(2, 0.2, 0.3)]))
            assert out.has_zero_mean


def _tail_bound(kind):
    return exact_tail_bound(ModelConfig(kind, GridSpec.create(1, 4)))


def _tail_probes(limit, per_binade=64, seed=17):
    """Both signs of: random mantissas in every binade from the smallest
    normal float64 up to `limit`, `limit` itself, random and extreme
    subnormals, and zero."""
    rng = np.random.default_rng(seed)
    top = math.frexp(limit)[1] - 1  # limit = f * 2**top, 1 <= f < 2
    binades = np.arange(np.finfo(np.float64).minexp, top + 1)
    mantissas = 1.0 + rng.random((binades.size, per_binade))
    normals = np.ldexp(mantissas, binades[:, None]).ravel()
    normals = normals[normals <= limit]
    tiny = np.finfo(np.float64).tiny
    subnormals = rng.random(per_binade) * tiny
    extremes = [limit, tiny, np.nextafter(tiny, 0.0), 5e-324, 0.0]
    x = np.concatenate([normals, subnormals, extremes])
    return np.concatenate([x, -x])


class TestExactTail:
    """Below its model's bound each full remainder is exactly +0.0, so the
    stepper may march with the propagator alone."""

    def test_probes_cover_every_binade_up_to_the_bound(self):
        for kind in (EXPONENTIAL, ADL):
            bound = _tail_bound(kind)
            x = _tail_probes(bound)
            assert np.abs(x).max() == bound
            exponents = np.frexp(np.abs(x[np.abs(x) >= np.finfo(np.float64).tiny]))[1]
            assert np.unique(exponents).size == math.frexp(bound)[1] + 1022
            assert np.signbit(x).any() and np.signbit(-x).any()

    def test_expm1_and_log1p_return_their_argument_there(self):
        """The bound's proof on this numpy: below 2^-54 expm1 and log1p return
        their argument, and a full remainder passes log1p at most max|v| and
        expm1 at most c max|v|, so both must hold bit for bit, signed zeros
        included, on every binade up to each model's bound and c times it,
        and on every binade below 2^-54."""
        limits = [np.nextafter(2.0**-54, 0.0)]
        for kind in (EXPONENTIAL, ADL):
            limits += [_tail_bound(kind), linear_coefficient(kind) * _tail_bound(kind)]
        for limit in limits:
            x = _tail_probes(limit)
            assert np.abs(x).max() == limit
            assert np.expm1(x).tobytes() == x.tobytes(), limit
            assert np.log1p(x).tobytes() == x.tobytes(), limit

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_full_remainder_is_positive_zero_at_or_below_the_bound(self, kind):
        cfg = ModelConfig(kind, GridSpec.create(1, 4))
        x = _tail_probes(_tail_bound(kind))
        got = _superlinear_pointwise(cfg, x, out=np.empty_like(x))
        assert got.tobytes() == np.zeros_like(x).tobytes()

    @pytest.mark.parametrize("order", [2, 6, DEFAULT_TRUNCATION_ORDER])
    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_truncated_remainder_is_not_zero_there(self, kind, order):
        """Horner's `* x * x` leaves a_2 x^2, nonzero wherever x^2 is normal."""
        cfg = ModelConfig(kind, GridSpec.create(1, 4), mode=TRUNCATED, truncation_order=order)
        x = _tail_probes(_tail_bound(kind))
        x = x[np.abs(x) >= 1e-150]
        assert x.size > 1000
        assert np.all(_superlinear_pointwise(cfg, x) != 0.0)

    def test_bound_is_given_to_full_modes_only(self):
        """0.9 * 2^-54 / c for the full forms: about 5.0e-17 for exp and
        1.67e-17 for adl, whose c times it stays below 2^-54."""
        assert EXACT_TAIL_ARGUMENT == 0.9 * 2.0**-54
        assert 4.99e-17 < _tail_bound(EXPONENTIAL) < 5.0e-17
        assert 1.66e-17 < _tail_bound(ADL) < 1.67e-17
        grid = GridSpec.create(1, 4)
        for kind in (EXPONENTIAL, ADL):
            want = EXACT_TAIL_ARGUMENT / linear_coefficient(kind)
            assert exact_tail_bound(ModelConfig(kind, grid)) == want
            assert linear_coefficient(kind) * want < 2.0**-54
            for order in (0, 1, 2, DEFAULT_TRUNCATION_ORDER):
                cfg = ModelConfig(kind, grid, mode=TRUNCATED, truncation_order=order)
                assert exact_tail_bound(cfg) == 0.0


def assert_close_per_mode(got, want, grid, tol=1e-13):
    """Per-mode comparison with the |k|^4 amplification factored out.

    Both evaluations weight mode k by k^4, so rounding noise in either
    path grows like (1 + |k|^4); dividing it back out leaves a uniform
    rounding-level comparison.
    """
    k = grid.wavenumbers.astype(float)
    if grid.dim == 1:
        weight = 1.0 + k**4
    else:
        weight = 1.0 + (k[:, None] ** 2 + k[None, :] ** 2) ** 2
    assert float(np.max(np.abs(got - want) / weight)) < tol


class TestRhsAgainstDirectTransform:
    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_1d_single_mode(self, kind):
        grid = GridSpec.create(1, 8)
        v = field_from_modes(grid, [(2, 0.3, 0.4)])
        got = rhs(ModelConfig(kind, grid), v)
        want = direct_rhs_coeffs(v, kind)
        assert_close_per_mode(got.coeffs, want, grid)

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_1d_multimode(self, kind):
        grid = GridSpec.create(1, 10)
        v = field_from_modes(grid, [(1, 0.2, 0.0), (3, 0.1, 1.1), (7, 0.05, -0.4)])
        got = rhs(ModelConfig(kind, grid), v)
        want = direct_rhs_coeffs(v, kind)
        assert_close_per_mode(got.coeffs, want, grid)

    def test_2d_exponential(self):
        grid = GridSpec.create(2, 3)
        v = field_from_modes(grid, [((1, 2), 0.2, 0.0), ((2, -1), 0.1, 0.5)])
        got = rhs(ModelConfig(EXPONENTIAL, grid), v)
        want = direct_rhs_coeffs(v, EXPONENTIAL)
        assert_close_per_mode(got.coeffs, want, grid)

    def test_2d_adl(self):
        grid = GridSpec.create(2, 3)
        v = field_from_modes(grid, [((0, 1), 0.15, 0.0), ((1, 1), 0.1, 0.2)])
        got = rhs(ModelConfig(ADL, grid), v)
        want = direct_rhs_coeffs(v, ADL)
        assert_close_per_mode(got.coeffs, want, grid)

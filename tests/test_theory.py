"""Tests for the decay margins, thresholds, Lyapunov functionals, and
series identities.

Numerical reference values were computed with 50-digit arithmetic from the
defining formulas; Lyapunov integrals are checked against classical closed
forms (a modified Bessel function for the exponential weight, an algebraic
expression for the inverse-square weight) rather than against the
collocation quadrature being tested.
"""

import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

from crystalsurf import theory, validation
from crystalsurf.models import ADL, EXPONENTIAL, SingularityError
from crystalsurf.spectral import (
    GridSpec,
    field_from_modes,
    from_physical,
    wiener_norm,
    zero_field,
)
from crystalsurf.theory import (
    DEFAULT_ROOT_TOL,
    ENVELOPE_SLACK_FACTOR,
    decay_envelope,
    delta,
    delta_adl,
    delta_exp,
    delta_exp_coefficient_audit,
    interpolation_check,
    interpolation_columns,
    lyapunov,
    lyapunov_l1,
    lyapunov_l2,
    series_identity_check,
    smallness_report,
    threshold_bracket,
    threshold_root,
)

# 50-digit reference evaluations of the margin formulas.
DELTA_EXP_AT_0_1 = 5.37940132687845310e-02
DELTA_ADL_AT_0_023 = 3.12868792155841624e-01
ROOT_EXP = 1.04835667585287770e-01
ROOT_ADL = 2.51950424200890269e-02


class TestDecayMargins:
    @pytest.mark.parametrize("x", [709.0, 709.8, 800.0, 1e300, math.inf])
    def test_exp_margin_past_float_overflow_is_minus_inf(self, x):
        """Above x ~ 709.78, e^x does not fit a double: the margin is -inf,
        the IEEE value of the overflowed formula (raised OverflowError
        before), and the data are reported inadmissible."""
        assert delta_exp(x) == -math.inf
        report = smallness_report(EXPONENTIAL, x)
        assert report.delta == -math.inf and report.admissible is False

    def test_exact_values_at_zero(self):
        """At zero amplitude the margins equal the linear decay rates."""
        assert delta_exp(0.0) == 1.0
        assert delta_adl(0.0) == 3.0

    def test_reference_values(self):
        assert math.isclose(delta_exp(0.1), DELTA_EXP_AT_0_1, rel_tol=1e-12)
        assert math.isclose(delta_adl(0.023), DELTA_ADL_AT_0_023, rel_tol=1e-12)

    def test_margins_go_negative_past_threshold(self):
        assert delta_exp(0.25) < 0
        assert delta_adl(0.05) < 0

    @pytest.mark.parametrize(
        "fn, bad, match",
        [
            (delta_exp, -0.1, "requires x >= 0"),
            (delta_adl, -0.1, "requires x >= 0"),
            (delta_adl, 1.0, "requires x < 1"),
            (delta_adl, 1.5, "requires x < 1"),
        ],
    )
    def test_domain_validation(self, fn, bad, match):
        with pytest.raises(ValueError, match=match):
            fn(bad)

    def test_dispatch(self):
        assert delta(EXPONENTIAL, 0.1) == delta_exp(0.1)
        assert delta(ADL, 0.02) == delta_adl(0.02)
        with pytest.raises(ValueError, match="unknown model kind"):
            delta("bogus", 0.1)

    @given(x=st.floats(min_value=0.0, max_value=2.0), gap=st.floats(min_value=1e-6, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_exp_margin_strictly_decreasing(self, x, gap):
        assert delta_exp(x) > delta_exp(x + gap)

    @given(x=st.floats(min_value=0.0, max_value=0.5), gap=st.floats(min_value=1e-6, max_value=0.4))
    @settings(max_examples=100, deadline=None)
    def test_adl_margin_strictly_decreasing(self, x, gap):
        assert delta_adl(x) > delta_adl(x + gap)


class TestSmallnessReport:
    def test_admissible_amplitudes(self):
        for kind, x in [(EXPONENTIAL, 0.1), (ADL, 0.023)]:
            report = smallness_report(kind, x)
            assert report.kind == kind
            assert report.x == x
            assert report.delta == delta(kind, x)
            assert report.admissible is True

    def test_inadmissible_amplitudes(self):
        assert smallness_report(EXPONENTIAL, 0.25).admissible is False
        assert smallness_report(ADL, 0.05).admissible is False

    @pytest.mark.parametrize("x", [1.0, 1.5, 100.0])
    def test_adl_amplitudes_past_one_reported_not_raised(self, x):
        """Out-of-domain adl amplitudes yield a -inf margin instead of an
        exception, so the reporting path never throws on wild input."""
        report = smallness_report(ADL, x)
        assert report.delta == float("-inf")
        assert report.admissible is False


def _exact_margin_sign(kind: str, x: float) -> int:
    """Sign of delta(kind, x) at the float x, in exact rationals (adl) or
    300-bit arithmetic (exp)."""
    if kind == ADL:
        q = Fraction(x)
        r = q / (1 - q)
        value = 6 - 3 * (1 + r * (28 + r * (120 + 120 * r))) / (1 - q) ** 4
    else:
        with mpmath.workprec(300):
            q = mpmath.mpf(x)
            value = 2 - mpmath.exp(q) * (1 + q * (7 + q * (6 + q)))
    return (value > 0) - (value < 0)


class TestThreshold:
    @pytest.mark.parametrize("kind, lo_expected, hi_expected", [
        (EXPONENTIAL, 0.104, 0.105),
        (ADL, 0.0251, 0.0252),
    ])
    def test_root_location(self, kind, lo_expected, hi_expected):
        root = threshold_root(kind)
        assert lo_expected < root < hi_expected

    def test_roots_match_high_precision_references(self):
        assert abs(threshold_root(EXPONENTIAL) - ROOT_EXP) < 2e-12
        assert abs(threshold_root(ADL) - ROOT_ADL) < 2e-12

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_bracket_width_and_signs(self, kind):
        lo, hi = threshold_bracket(kind)
        assert hi - lo <= DEFAULT_ROOT_TOL
        assert delta(kind, lo) > 0 > delta(kind, hi)

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_sign_change_around_root(self, kind):
        root = threshold_root(kind)
        assert delta(kind, root - 1e-6) > 0 > delta(kind, root + 1e-6)

    def test_custom_tolerance_honored(self):
        lo, hi = threshold_bracket(EXPONENTIAL, tol=1e-6)
        assert hi - lo <= 1e-6

    def test_tolerance_validation(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            threshold_bracket(EXPONENTIAL, tol=0.0)

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    @pytest.mark.parametrize("tol", [-1e-3, -math.inf, math.nan])
    def test_every_tolerance_not_above_zero_is_refused(self, kind, tol):
        """A NaN tol used to skip the bisection and return the anchors,
        (0, 1) or (0, 0.5), as converged."""
        with pytest.raises(ValueError, match="tol must be positive"):
            threshold_bracket(kind, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            threshold_root(kind, tol)

    @pytest.mark.parametrize("kind, tol", [(EXPONENTIAL, 1e-17), (ADL, 3e-18)])
    def test_tolerance_below_the_float_spacing_returns_adjacent_floats(self, kind, tol):
        """A tol below the float spacing at the root used to loop forever:
        once the midpoint rounds to an end, bisection changes nothing.  The
        call runs in a subprocess, so a hang fails this test by timing out
        instead of hanging the suite."""
        code = (
            "import sys; from crystalsurf.theory import threshold_bracket\n"
            "lo, hi = threshold_bracket(sys.argv[1], float(sys.argv[2]))\n"
            "print(lo.hex(), hi.hex())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, kind, repr(tol)],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        lo, hi = (float.fromhex(word) for word in proc.stdout.split())
        assert hi == math.nextafter(lo, math.inf)
        assert delta(kind, lo) > 0 >= delta(kind, hi)

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_float_margin_signs_match_exact_arithmetic(self, kind):
        """Bisection steers by the sign of the float margin, so the bracket
        holds the exact root only where that sign is the exact one.  Here
        it is, at both ends of the default bracket and at the 40 floats on
        each side of the reported root: adl's margin is evaluated in exact
        rationals, exp's with 300-bit mpmath (e^x has no rational value)."""
        lo, hi = threshold_bracket(kind)
        points = [lo, hi]
        below = above = threshold_root(kind)
        for _ in range(40):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            points += [below, above]
        for x in points:
            assert np.sign(delta(kind, x)) == _exact_margin_sign(kind, x), x
        assert _exact_margin_sign(kind, lo) > 0 > _exact_margin_sign(kind, hi)

    def test_reference_amplitudes_are_admissible(self):
        """The canonical demonstration amplitudes sit inside the thresholds."""
        assert threshold_root(EXPONENTIAL) > 0.1
        assert threshold_root(ADL) > 0.023


class TestDecayEnvelope:
    def test_scalar_and_time_zero(self):
        assert decay_envelope(0.1, 0.05, 0.0) == pytest.approx(0.1)
        assert decay_envelope(0.1, 0.05, 2.0) == pytest.approx(0.1 * math.exp(-0.1))

    def test_array_argument(self):
        ts = np.array([0.0, 1.0, 2.0])
        env = decay_envelope(0.2, 0.5, ts)
        assert env.shape == ts.shape
        assert np.allclose(env, 0.2 * np.exp(-0.5 * ts))

    def test_monotone_decreasing_for_positive_margin(self):
        env = decay_envelope(1.0, 0.3, np.linspace(0.0, 10.0, 50))
        assert np.all(np.diff(env) < 0)

    def test_slack_factor_is_part_of_the_contract(self):
        assert ENVELOPE_SLACK_FACTOR == 1e-6


class TestLyapunov:
    def test_values_at_flat_state(self):
        """Both functionals reduce to the torus volume at v = 0."""
        g1 = GridSpec.create(1, 8)
        g2 = GridSpec.create(2, 5)
        assert lyapunov_l1(zero_field(g1)) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert lyapunov_l2(zero_field(g1)) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert lyapunov_l1(zero_field(g2)) == pytest.approx((2.0 * math.pi) ** 2, rel=1e-14)

    def test_exponential_weight_matches_bessel_closed_form(self):
        """The integral of exp(-a sin x) over a period is 2 pi I_0(a)."""
        grid = GridSpec.create(1, 16)
        v = field_from_modes(grid, [(1, 0.3, 0.0)])
        assert lyapunov_l1(v) == pytest.approx(2.0 * math.pi * i0(0.3), rel=1e-13)

    def test_inverse_square_weight_matches_algebraic_closed_form(self):
        """The integral of (1 + a sin x)^(-2) over a period is
        2 pi (1 - a^2)^(-3/2)."""
        grid = GridSpec.create(1, 16)
        v = field_from_modes(grid, [(1, 0.3, 0.0)])
        want = 2.0 * math.pi * (1.0 - 0.3**2) ** -1.5
        assert lyapunov_l2(v) == pytest.approx(want, rel=1e-13)

    def test_dispatch(self):
        grid = GridSpec.create(1, 8)
        v = field_from_modes(grid, [(2, 0.1, 0.4)])
        assert lyapunov(EXPONENTIAL, v) == lyapunov_l1(v)
        assert lyapunov(ADL, v) == lyapunov_l2(v)

    def test_inverse_square_weight_rejects_vanishing_height(self):
        grid = GridSpec.create(1, 8)
        v = field_from_modes(grid, [(1, 1.2, 0.0)])
        with pytest.raises(SingularityError, match="lyapunov_l2 undefined"):
            lyapunov_l2(v)


class TestInterpolation:
    def test_single_mode_attains_equality(self):
        """For a sin(k x) the inequality is an identity: both sides equal
        a k^s."""
        grid = GridSpec.create(1, 8)
        f = field_from_modes(grid, [(3, 0.7, 0.2)])
        check = interpolation_check(f, 1.0, 2.0)
        assert check.passed is True
        assert check.lhs == pytest.approx(0.7 * 3.0, rel=1e-12)
        assert check.lhs == pytest.approx(check.rhs, rel=1e-12)

    def test_degenerate_orders(self):
        grid = GridSpec.create(1, 6)
        f = field_from_modes(grid, [(1, 0.4, 0.0), (2, 0.2, 0.9)])
        check = interpolation_check(f, 0.0, 0.0)
        assert check.passed is True
        assert check.lhs == check.rhs

    @pytest.mark.parametrize("s, r", [(2.0, 1.0), (-0.5, 1.0)])
    def test_order_validation(self, s, r):
        grid = GridSpec.create(1, 4)
        f = field_from_modes(grid, [(1, 0.1, 0.0)])
        with pytest.raises(ValueError, match="need 0 <= s <= r"):
            interpolation_check(f, s, r)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        s=st.floats(min_value=0.0, max_value=3.0),
        extra=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_fields_always_pass(self, seed, s, extra):
        """The inequality is a theorem, so no field can violate it."""
        grid = GridSpec.create(1, 8)
        rng = np.random.RandomState(seed)
        f = from_physical(rng.uniform(-1.0, 1.0, grid.phys_shape), grid)
        assert interpolation_check(f, s, s + extra).passed is True

    @staticmethod
    def _count_norms(monkeypatch):
        calls = []
        norms = theory._coeff_norms

        def counted(*args, **kwargs):
            calls.append(args)
            return norms(*args, **kwargs)

        monkeypatch.setattr(theory, "_coeff_norms", counted)
        return calls

    @pytest.mark.parametrize("dim, m", [(1, 4), (1, 9), (1, 16), (2, 3), (2, 6)])
    def test_batched_pairs_equal_the_per_pair_expression(self, dim, m):
        """On each grid of the validation ensemble, every (s, r) pair read
        from one norms call (shuffled, repeated, int orders) gives the
        lhs, rhs and verdict of one wiener_norm call per norm, bit for bit."""
        grid = GridSpec.create(dim, m)
        rng = np.random.default_rng(1000 * dim + m)
        pairs = [(s, r) for r in range(5) for s in range(r + 1)]
        pairs = pairs + pairs[::4] + [(float(s), float(r)) for s, r in pairs[::3]]
        rng.shuffle(pairs)
        for _ in range(4):
            f = validation.random_field(grid, rng, scale=10.0 ** rng.uniform(-3, 1))
            columns = interpolation_columns(grid, f.coeffs[np.newaxis], pairs)
            assert [(c.s, c.r) for c in columns] == pairs
            for (s, r), column in zip(pairs, columns):
                lhs = wiener_norm(f, s)
                if r == 0:
                    rhs = wiener_norm(f, 0.0)
                else:
                    theta = s / r
                    rhs = wiener_norm(f, 0.0) ** (1.0 - theta) * wiener_norm(f, r) ** theta
                assert column.lhs[0].hex() == lhs.hex()
                assert column.rhs[0].hex() == rhs.hex()
                assert column.passed[0] is (lhs <= rhs * (1.0 + 1e-12))
            assert all(c.passed[0] for c in columns)

    @pytest.mark.parametrize("bad", [(2.0, 1.0), (-0.5, 1.0), (1, math.nan)])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_bad_pair_anywhere_raises_before_any_norm(self, monkeypatch, bad, at):
        calls = self._count_norms(monkeypatch)
        f = field_from_modes(GridSpec.create(1, 4), [(1, 0.1, 0.0)])
        pairs = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (0.0, 0.0)]
        pairs.insert(at, bad)
        with pytest.raises(ValueError, match="need 0 <= s <= r"):
            interpolation_columns(f.grid, f.coeffs[np.newaxis], pairs)
        assert calls == []

    def test_validate_check_reads_each_field_once(self, monkeypatch):
        """The validate check covers 1000 fields x 15 pairs with at most one
        norm pass per ensemble grid and chunk, each over that grid's stack
        of the chunk (fails if the norms are recomputed per field or per
        pair)."""
        calls = self._count_norms(monkeypatch)
        result = validation.check_interpolation(
            np.random.default_rng(validation.DEFAULT_SEED)
        )
        assert result.passed is True
        assert result.detail == "15000/15000 instances hold"
        assert len(calls) <= 5 * math.ceil(200 / validation._ENSEMBLE_ROWS)
        assert sum(coeffs.shape[0] for grid, coeffs, *_ in calls) == 1000


class TestSeriesIdentities:
    def test_identity_against_independent_resummation(self):
        """At w = 1/2 the first falling-factorial series sums to 90, a
        value recomputed here directly from its terms."""
        direct = math.fsum(
            (j + 2) * (j + 1) * j * 0.5 ** (j - 1) for j in range(2, 200)
        )
        assert direct == pytest.approx(90.0, rel=1e-12)
        assert 6.0 / (1.0 - 0.5) ** 4 - 6.0 == 90.0

    def test_residuals_small_at_reference_point(self):
        residuals = series_identity_check(0.5, 60)
        assert set(residuals) == {3, 4, 5, 6}
        for value in residuals.values():
            assert value < 1e-10

    def test_residuals_shrink_with_more_terms(self):
        coarse = series_identity_check(0.5, 20)
        fine = series_identity_check(0.5, 60)
        for m in (3, 4, 5, 6):
            assert fine[m] < coarse[m]

    @given(w=st.floats(min_value=0.0, max_value=0.7))
    @settings(max_examples=50, deadline=None)
    def test_residuals_small_across_radii(self, w):
        """Residuals stay uniformly tiny across the whole radius window.

        The bound is set by the slowest case: at w = 0.7 the order-100
        partial sum leaves a genuine series tail of 1.15e-9, growing
        monotonically in w, so 3e-9 certifies nine digits everywhere.
        """
        for value in series_identity_check(w, 100).values():
            assert value < 3e-9

    @pytest.mark.parametrize("n", [4, 60, 120])
    @pytest.mark.parametrize("w", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_residuals_keep_the_bits_of_the_factor_loop(self, w, n):
        """The partial sums take their falling factorials from math.perm;
        the former float loop, kept here, gives the same residual bits."""
        starts = {3: 2, 4: 2, 5: 3, 6: 4}
        want = {}
        for m, closed in theory._series_closed_forms(w).items():
            terms = []
            for j in range(starts[m], n + 1):
                factor = 1.0
                for i in range(m):
                    factor *= j + 2 - i
                terms.append(factor * w ** (j - 1))
            want[m] = abs(math.fsum(terms) - closed) / max(1.0, abs(closed))
        got = series_identity_check(w, n)
        assert {m: r.hex() for m, r in got.items()} == {m: r.hex() for m, r in want.items()}

    @pytest.mark.parametrize(
        "w, n, match",
        [
            (1.0, 50, "requires 0 <= w < 1"),
            (-0.1, 50, "requires 0 <= w < 1"),
            (0.5, 3, "need n >= 4"),
        ],
    )
    def test_domain_validation(self, w, n, match):
        with pytest.raises(ValueError, match=match):
            series_identity_check(w, n)


class TestCoefficientAudit:
    def test_default_audit_passes(self):
        audit = delta_exp_coefficient_audit()
        assert audit.passed is True
        assert audit.max_error < 1e-13
        assert len(audit.samples) == 3
        for x, partial, target, err in audit.samples:
            assert err == abs(partial - target)

    def test_truncated_audit_detects_missing_terms(self):
        """Cutting the resummation at order 5 leaves a visible tail, so
        the audit must fail rather than absorb it."""
        audit = delta_exp_coefficient_audit(n=5)
        assert audit.passed is False
        assert audit.max_error > 1e-6

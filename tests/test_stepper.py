"""Tests for the exponential time differencing integrators.

Covers the phi-function evaluator against high-precision references, the
stepper configuration contract, the admissibility guard, exactness on the
pure linear flow, observer cadence, determinism, a discrete dilation
symmetry shared by both equations, the fused 1D step against the stage
arithmetic, one step of each scheme in each form against the Cox-Matthews
formulas, the exact linear tail against the full step, and the convergence
orders of the two schemes.
"""

import dataclasses
import itertools
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalsurf import models, stepper
from crystalsurf.models import (
    ADL,
    EXACT_TAIL_BOUND,
    EXPONENTIAL,
    ModelConfig,
    SingularityError,
    nonlinear_remainder,
    remainder_fn,
)
from crystalsurf.spectral import (
    _STACK_BYTES,
    GridSpec,
    SpectralField,
    field_from_modes,
    zero_field,
)
from crystalsurf.stepper import (
    DT_GUARD_HEADROOM,
    NonFiniteStateError,
    SCHEME_ETD1,
    SCHEME_ETDRK4,
    StepperConfig,
    _Stepper,
    dt_guard,
    integrate,
    phi_functions,
)

# Reference values of (phi_0, ..., phi_3) computed with 50-digit arithmetic
# from the defining formulas phi_0 = exp, phi_{m+1}(z) = (phi_m(z) - 1/m!)/z.
# The two arguments straddling -0.25 sit on either side of the evaluator's
# internal series/formula switch, so both branches face the same oracle.
PHI_REFERENCE = [
    (-0.1, (9.04837418035959629e-01, 9.51625819640404269e-01,
            4.83741803595957309e-01, 1.62581964040426824e-01)),
    (-1.0, (3.67879441171442334e-01, 6.32120558828557666e-01,
            3.67879441171442334e-01, 1.32120558828557666e-01)),
    (-10.0, (4.53999297624848542e-05, 9.99954600070237509e-02,
             9.00004539992976249e-02, 4.09999546000702347e-02)),
    (-0.2499999999, (7.78800783149284914e-01, 8.84796867756779015e-01,
                     4.60812529157209161e-01, 1.56749883433863285e-01)),
    (-0.2500000001, (7.78800782993524843e-01, 8.84796867671982068e-01,
                     4.60812529127746617e-01, 1.56749883426313574e-01)),
]


class TestPhiFunctions:
    def test_values_at_zero(self):
        """phi_m(0) = 1/m! exactly, including the scalar return type."""
        values = phi_functions(0.0)
        assert values == (1.0, 1.0, 0.5, 1.0 / 6.0)
        assert all(isinstance(v, float) for v in values)

    @pytest.mark.parametrize("z, expected", PHI_REFERENCE)
    def test_reference_values(self, z, expected):
        """Both evaluation branches match 50-digit references to 1e-13."""
        got = phi_functions(z)
        for g, e in zip(got, expected):
            assert math.isclose(g, e, rel_tol=1e-13)

    def test_scalar_matches_array(self):
        """Scalar and array inputs run the same arithmetic."""
        zs = np.array([-0.7, -0.01, -30.0])
        arrays = phi_functions(zs)
        for i, z in enumerate(zs):
            scalars = phi_functions(float(z))
            for a, s in zip(arrays, scalars):
                assert a[i] == s

    def test_array_shape_preserved(self):
        zs = np.linspace(-2.0, 0.0, 6).reshape(2, 3)
        for arr in phi_functions(zs):
            assert arr.shape == (2, 3)

    @pytest.mark.parametrize("bad", [0.1, np.array([-1.0, 2.0])])
    def test_positive_argument_rejected(self, bad):
        with pytest.raises(ValueError, match="z <= 0"):
            phi_functions(bad)

    def test_taylor_branch_keeps_the_bits_of_its_own_horner(self):
        """Below |z| = 0.25 phi_1..phi_3 are bit for bit the stepper's former
        Taylor polynomial, kept here: sum_{n<14} z^n / (n+m)! by Horner on
        1.0 / (n+m)!.  10^4 points in (-0.25, 0], with +-0.0, subnormals and
        the last float below the switch."""
        def old_series(z, m):
            acc = np.full_like(z, 1.0 / math.factorial(13 + m))
            for n in range(12, -1, -1):
                acc = acc * z + 1.0 / math.factorial(n + m)
            return acc

        tiny = np.finfo(np.float64).tiny
        edges = [0.0, -0.0, -5e-324, -tiny / 3, -tiny, -1e-300, -1e-17, -np.nextafter(0.25, 0.0)]
        zs = np.concatenate([np.linspace(-0.25, 0.0, 10_001)[1:], edges])
        assert np.all(np.abs(zs) < 0.25)
        for m, got in enumerate(phi_functions(zs)[1:], 1):
            assert got.tobytes() == old_series(zs, m).tobytes(), m

    @given(z=st.floats(min_value=-50.0, max_value=-0.5))
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, z):
        """phi_{m+1}(z) = (phi_m(z) - 1/m!)/z away from the origin.

        The subtraction in the recurrence is well conditioned on this
        argument range, so the identity can be checked directly.
        """
        p0, p1, p2, p3 = phi_functions(z)
        assert math.isclose(p1, (p0 - 1.0) / z, rel_tol=1e-12)
        assert math.isclose(p2, (p1 - 1.0) / z, rel_tol=1e-12)
        assert math.isclose(p3, (p2 - 0.5) / z, rel_tol=1e-12)

    @given(z=st.floats(min_value=-1e6, max_value=0.0))
    @settings(max_examples=200, deadline=None)
    def test_range_and_ordering(self, z):
        """On z <= 0 every phi lies in [0, 1] and phi_1 >= phi_2 >= phi_3.

        phi_0 = exp may underflow to zero for very negative z, so only its
        bound is non-strict.
        """
        p0, p1, p2, p3 = phi_functions(z)
        assert 0.0 <= p0 <= 1.0
        assert 0.0 < p3 <= p2 <= p1 <= 1.0


class TestStepperConfig:
    def test_defaults(self):
        cfg = StepperConfig(dt=0.5)
        assert cfg.scheme == SCHEME_ETDRK4
        assert cfg.t_end == 1.0
        assert cfg.sample_every == 1
        assert cfg.max_steps == 10_000_000
        assert cfg.allow_large_dt is False

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"dt": 0.0}, "dt must be positive"),
            ({"dt": -0.1}, "dt must be positive"),
            ({"dt": 0.1, "scheme": "rk4"}, "scheme must be one of"),
            ({"dt": 0.1, "t_end": -1.0}, "t_end must be >= 0"),
            ({"dt": 0.1, "sample_every": 0}, "sample_every must be >= 1"),
            ({"dt": 0.1, "max_steps": 0}, "max_steps must be >= 1"),
            # The config owns the step budget, so a run or sweep refuses it
            # before any step; a count that is not finite is refused too
            # (dt = 5e-324 constructed, and its n_steps raised OverflowError).
            (
                {"dt": 1e-3, "t_end": 0.3, "max_steps": 10},
                "^run needs 300 steps, exceeding max_steps=10$",
            ),
            ({"dt": 5e-324}, "^run needs inf steps, exceeding max_steps=10000000$"),
            ({"dt": 0.1, "t_end": math.inf}, "^run needs inf steps"),
            ({"dt": math.nan}, "dt must be positive"),
            ({"dt": 0.1, "t_end": math.nan}, "t_end must be >= 0"),
            # A huge count reads in exponent form, not as the hundreds of
            # digits of its double; one just past the budget reads whole.
            (
                {"dt": 1e-300, "t_end": 1.0},
                r"^run needs 1e\+300 steps, exceeding max_steps=10000000$",
            ),
            (
                {"dt": 0.1, "t_end": 1_000_000.1},
                "^run needs 10000001 steps, exceeding max_steps=10000000$",
            ),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            StepperConfig(**kwargs)

    @pytest.mark.parametrize(
        "dt, t_end, expected",
        [(1e-4, 5.0, 50_000), (0.3, 1.0, 3), (0.1, 0.0, 0), (0.25, 1.0, 4)],
    )
    def test_n_steps_rounds(self, dt, t_end, expected):
        assert StepperConfig(dt=dt, t_end=t_end).n_steps == expected

    def test_step_count_at_max_steps_is_admitted(self):
        assert StepperConfig(dt=1e-3, t_end=0.3, max_steps=300).n_steps == 300

    def test_frozen(self):
        cfg = StepperConfig(dt=0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dt = 0.2


class TestDtGuard:
    def test_zero_field_gives_linear_scale(self):
        grid = GridSpec.create(1, 4)
        assert dt_guard(ModelConfig(EXPONENTIAL, grid), zero_field(grid)) == 0.5
        assert dt_guard(ModelConfig(ADL, grid), zero_field(grid)) == 0.5 / 3.0

    def test_shrinks_with_amplitude(self):
        grid = GridSpec.create(1, 8)
        cfg = ModelConfig(EXPONENTIAL, grid)
        small = dt_guard(cfg, field_from_modes(grid, [(1, 0.05, 0.0)]))
        large = dt_guard(cfg, field_from_modes(grid, [(1, 0.6, 0.0)]))
        assert 0.0 < large < small


# A fresh interpreter's first 2D M=32 adl run, 100 steps, timed in minor
# page faults around cli.execute_run.  Linux's getrusage counts them.
_COLD_RUN = """
import resource
from crystalsurf import cli
cfg = cli.parse_run_config({
    "model": {"kind": "adl"},
    "grid": {"dim": 2, "modes": 32},
    "stepper": {"scheme": "etdrk4", "dt": 1e-3, "t_end": 0.1, "sample_every": 5},
    "initial_data": {"kind": "modes", "modes": [{"k": [2, 1], "amplitude": 0.02, "phase": 0.3}]},
})
v0 = cli.build_initial_field(cfg, cli.build_grid(cfg))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cli.execute_run(cfg, v0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc, Linux rusage")
class TestColdRunPageFaults:
    def test_first_2d_run_reuses_heap_pages(self):
        """The march's remainder workspace, and dt_guard's throwaway one
        freed before the march, raise glibc's mmap threshold past the
        per-sample P^2 temporaries, which then reuse heap pages.  A cold
        run takes about 550 minor faults so; without the workspace (an
        out= sample buffer alone), with a forward that takes no buffers,
        or with dt_guard's evaluation stubbed out, 4 700 to 10 600.  The
        benchmark's warm rounds do not see this, so it is pinned here."""
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_RUN], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2000


class TestIntegrate:
    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    @pytest.mark.parametrize("scheme", [SCHEME_ETD1, SCHEME_ETDRK4])
    def test_linear_flow_exact(self, kind, scheme):
        """With the nonlinearity forced to zero each mode decays by its
        exact propagator, so the discrete flow reproduces exp(-c k^4 t)
        up to accumulated rounding over the steps."""
        grid = GridSpec.create(1, 6)
        v0 = field_from_modes(grid, [(1, 0.2, 0.0), (3, 0.1, 1.1)])
        cfg = ModelConfig(kind, grid)
        dt, n = 0.01, 100
        # The guard probes the real nonlinearity, which the override then
        # silences, so its recommendation is irrelevant here.
        scfg = StepperConfig(dt=dt, scheme=scheme, t_end=dt * n, allow_large_dt=True)
        state = integrate(cfg, scfg, v0, nonlinearity=lambda c: np.zeros_like(c))
        k4 = grid.wavenumbers.astype(float) ** 4
        want = v0.coeffs * np.exp(-cfg.linear_coefficient * k4 * dt) ** n
        assert state.t == pytest.approx(dt * n)
        assert np.all(np.abs(state.v.coeffs - want) <= 1e-12 * np.abs(want) + 1e-300)

    def test_schemes_agree_on_pure_linear_flow(self):
        """Zero nonlinearity reduces both schemes to the same propagator."""
        grid = GridSpec.create(1, 5)
        v0 = field_from_modes(grid, [(2, 0.3, 0.7)])
        cfg = ModelConfig(EXPONENTIAL, grid)
        zero = lambda c: np.zeros_like(c)
        finals = [
            integrate(cfg, StepperConfig(dt=0.02, scheme=s, t_end=0.5), v0,
                      nonlinearity=zero).v.coeffs
            for s in (SCHEME_ETD1, SCHEME_ETDRK4)
        ]
        assert np.array_equal(finals[0], finals[1])

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_zero_field_stays_zero(self, kind):
        grid = GridSpec.create(1, 6)
        cfg = ModelConfig(kind, grid)
        state = integrate(cfg, StepperConfig(dt=0.05, t_end=1.0), zero_field(grid))
        assert np.all(state.v.coeffs == 0.0)
        assert state.step_count == 20

    def test_observer_cadence(self):
        """The observer fires at step 0, every sample_every steps, and at
        the final step, with times equal to step index times dt."""
        grid = GridSpec.create(1, 4)
        v0 = field_from_modes(grid, [(1, 0.1, 0.0)])
        cfg = ModelConfig(EXPONENTIAL, grid)
        dt = 0.01
        seen = []
        state = integrate(
            cfg,
            StepperConfig(dt=dt, t_end=1.0, sample_every=7),
            v0,
            observer=lambda t, v: seen.append((t, v)),
        )
        expected_steps = [0] + list(range(7, 99, 7)) + [100]
        assert [t for t, _ in seen] == [i * dt for i in expected_steps]
        assert np.array_equal(seen[0][1].coeffs, v0.coeffs)
        assert np.array_equal(seen[-1][1].coeffs, state.v.coeffs)

    def test_mean_coefficient_stays_exactly_zero(self):
        grid = GridSpec.create(1, 8)
        v0 = field_from_modes(grid, [(1, 0.3, 0.0), (2, 0.1, 0.5)])
        cfg = ModelConfig(EXPONENTIAL, grid)
        state = integrate(cfg, StepperConfig(dt=0.01, t_end=0.5), v0)
        assert state.v.coeffs[grid.index_of(0)] == 0.0

    def test_grid_mismatch_rejected(self):
        cfg = ModelConfig(EXPONENTIAL, GridSpec.create(1, 8))
        other = field_from_modes(GridSpec.create(1, 4), [(1, 0.1, 0.0)])
        with pytest.raises(ValueError, match="^field grid does not match the model configuration grid$"):
            integrate(cfg, StepperConfig(dt=0.01, t_end=0.1), other)

    def test_nonzero_mean_rejected(self):
        grid = GridSpec.create(1, 4)
        coeffs = np.zeros(grid.coeff_shape, dtype=np.complex128)
        coeffs[grid.index_of(0)] = 0.5
        bad = SpectralField(grid, coeffs)
        cfg = ModelConfig(EXPONENTIAL, grid)
        with pytest.raises(ValueError, match="non-zero mean"):
            integrate(cfg, StepperConfig(dt=0.01, t_end=0.1), bad)

    def test_step_budget_enforced(self):
        grid = GridSpec.create(1, 4)
        v0 = field_from_modes(grid, [(1, 0.1, 0.0)])
        cfg = ModelConfig(EXPONENTIAL, grid)
        with pytest.raises(ValueError, match="exceeding max_steps=1000"):
            integrate(cfg, StepperConfig(dt=1e-5, t_end=1.0, max_steps=1000), v0)

    def test_dt_guard_refusal_and_override(self):
        grid = GridSpec.create(1, 4)
        v0 = field_from_modes(grid, [(1, 0.2, 0.0)])
        cfg = ModelConfig(EXPONENTIAL, grid)
        dt = 1.5 * DT_GUARD_HEADROOM * dt_guard(cfg, v0)
        with pytest.raises(ValueError, match="allow_large_dt"):
            integrate(cfg, StepperConfig(dt=dt, t_end=dt), v0)
        state = integrate(
            cfg, StepperConfig(dt=dt, t_end=dt, allow_large_dt=True), v0
        )
        assert state.step_count == 1

    def test_bitwise_deterministic(self):
        grid = GridSpec.create(1, 10)
        v0 = field_from_modes(grid, [(1, 0.2, 0.0), (4, 0.05, 0.9)])
        cfg = ModelConfig(ADL, grid)
        scfg = StepperConfig(dt=2e-4, t_end=0.01)
        first = integrate(cfg, scfg, v0)
        second = integrate(cfg, scfg, v0)
        assert np.array_equal(first.v.coeffs, second.v.coeffs)

    def test_singular_initial_state_reports_time_zero(self):
        """Initial data touching 1 + v <= 0 fails the admissibility probe
        before the first step, tagged with time zero."""
        grid = GridSpec.create(1, 8)
        v0 = field_from_modes(grid, [(1, 1.5, 0.0)])
        cfg = ModelConfig(ADL, grid)
        with pytest.raises(SingularityError) as exc:
            integrate(cfg, StepperConfig(dt=1e-3, t_end=0.1), v0)
        assert exc.value.time == 0.0
        assert exc.value.step_end is None

    def test_stage_singularity_names_the_step(self):
        """v0 = 0.5 sin x keeps 1 + v0 >= 0.5, but an ETDRK4 stage state of
        the first step crosses 1 + v <= 0; the error spans that step instead
        of tagging t = 0, where the state is regular."""
        grid = GridSpec.create(1, 16)
        v0 = field_from_modes(grid, [(1, 0.5, 0.0)])
        with pytest.raises(SingularityError) as exc:
            integrate(ModelConfig(ADL, grid), StepperConfig(dt=1e-3, t_end=0.05), v0)
        assert (exc.value.time, exc.value.step_end) == (0.0, 1e-3)

    def test_mid_run_singularity_tagged_with_step_time(self):
        """A blow-up raised inside the loop carries the time of the step
        being advanced."""
        grid = GridSpec.create(1, 4)
        v0 = field_from_modes(grid, [(1, 0.1, 0.0)])
        cfg = ModelConfig(ADL, grid)
        dt = 0.01
        calls = {"n": 0}

        def explode(c):
            calls["n"] += 1
            if calls["n"] > 5:
                raise SingularityError("synthetic blow-up")
            return np.zeros_like(c)

        with pytest.raises(SingularityError) as exc:
            integrate(
                cfg,
                StepperConfig(dt=dt, scheme=SCHEME_ETD1, t_end=1.0),
                v0,
                nonlinearity=explode,
            )
        assert exc.value.time == 5 * dt


    @pytest.mark.parametrize("with_observer", [False, True])
    def test_overflow_raises_at_first_non_finite_sample(self, with_observer):
        """An exp run at amplitude 3 overflows; integrate stops at the first
        sample whose state is not finite instead of marching NaN to t_end."""
        grid = GridSpec.create(1, 16)
        v0 = field_from_modes(grid, [(1, 3.0, 0.0)])
        cfg = ModelConfig(EXPONENTIAL, grid)
        scfg = StepperConfig(dt=0.01, t_end=1.0, sample_every=5, allow_large_dt=True)
        seen = []
        observer = (lambda t, v: seen.append(t)) if with_observer else None
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError, match="non-finite state at t = ") as exc:
                integrate(cfg, scfg, v0, observer=observer)
        t = exc.value.time
        assert 0.0 < t < scfg.t_end
        assert math.isclose(t / scfg.dt / scfg.sample_every, round(t / scfg.dt / scfg.sample_every))
        if with_observer:
            assert seen and max(seen) < t

    def test_non_finite_state_checked_at_final_step(self):
        """The last step is checked even when it is off the sample cadence."""
        grid = GridSpec.create(1, 4)
        v0 = field_from_modes(grid, [(1, 0.01, 0.0)])
        cfg = ModelConfig(EXPONENTIAL, grid)
        dt = 0.01
        calls = {"n": 0}

        def poison(c):
            calls["n"] += 1
            return np.full_like(c, np.nan) if calls["n"] > 8 else np.zeros_like(c)

        scfg = StepperConfig(dt=dt, scheme=SCHEME_ETD1, t_end=0.1, sample_every=1000)
        with pytest.raises(NonFiniteStateError) as exc:
            integrate(cfg, scfg, v0, nonlinearity=poison)
        assert exc.value.time == pytest.approx(scfg.n_steps * dt)


SUBNORMAL = 1e-310

# The truncated exponential model at order 1 has an identically zero
# remainder, so a step is the bare propagator and a subnormal input can only
# leave through the flush; the full adl model covers a nonlinear remainder.
LINEAR_FLOW = ("exp", "truncated", 1)
NONLINEAR = ("adl", "full", 20)


def _march_setup(dim, model):
    grid = GridSpec.create(dim, 8 if dim == 1 else 4)
    kind, mode, order = model
    cfg = ModelConfig(kind, grid, mode=mode, truncation_order=order)
    k = 1 if dim == 1 else (1, 1)
    v = field_from_modes(grid, [(k, 0.05, 0.3)])
    return grid, cfg, v


def _seed_high_modes(grid, coeffs):
    """Copy of `coeffs` with Hermitian subnormal pairs at |k_1| = M."""
    c = coeffs.copy()
    m = grid.modes_per_axis
    for k in ([m] if grid.dim == 1 else [(m, 0), (m, 1), (-m, 2), (m, m)]):
        ks = (k,) if grid.dim == 1 else k
        value = complex(SUBNORMAL, -2 * SUBNORMAL)
        c[grid.index_of(k)] = value
        c[grid.index_of(tuple(-x for x in ks) if grid.dim == 2 else -k)] = np.conj(value)
    return c


def _has_subnormal(a):
    parts = np.abs(np.asarray(a).view(np.float64))
    return bool(np.any((parts > 0) & (parts < np.finfo(np.float64).tiny)))


class TestHalfSpectrumMarch:
    """The march carries the k_d >= 0 half and flushes subnormal parts."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("scheme", [SCHEME_ETD1, SCHEME_ETDRK4])
    def test_advance_returns_no_subnormals(self, dim, scheme):
        grid, cfg, v = _march_setup(dim, LINEAR_FLOW)
        m = grid.modes_per_axis
        half = _seed_high_modes(grid, v.coeffs)[..., m:].copy()
        assert _has_subnormal(half)
        before = half.copy()
        out = _Stepper(cfg, StepperConfig(dt=1e-4, scheme=scheme)).advance(half, 0.0)
        assert out.shape == half.shape
        assert not _has_subnormal(out)
        assert half.tobytes() == before.tobytes()  # the input is left alone

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("scheme", [SCHEME_ETD1, SCHEME_ETDRK4])
    @pytest.mark.parametrize("model", [LINEAR_FLOW, NONLINEAR], ids=["linear", "adl"])
    def test_step_ignores_subnormal_high_modes(self, dim, scheme, model):
        """Subnormal high modes change nothing: the step from the seeded
        state is bitwise the step from the state with those modes zeroed."""
        grid, cfg, v = _march_setup(dim, model)
        m = grid.modes_per_axis
        seeded = _seed_high_modes(grid, v.coeffs)[..., m:]
        worker = _Stepper(cfg, StepperConfig(dt=1e-4, scheme=scheme))
        got = worker.advance(seeded, 0.0)
        want = worker.advance(v.coeffs[..., m:], 0.0)
        assert got.shape == seeded.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nonlinearity_override_sees_full_layout(self, dim):
        grid, cfg, v = _march_setup(dim, NONLINEAR)
        shapes = set()

        def zero(c):
            shapes.add(c.shape)
            return np.zeros_like(c)

        scfg = StepperConfig(dt=1e-3, scheme=SCHEME_ETDRK4, t_end=5e-3)
        state = integrate(cfg, scfg, v, nonlinearity=zero)
        assert shapes == {grid.coeff_shape}
        assert state.v.coeffs.shape == grid.coeff_shape
        assert state.v.is_hermitian(tol=0.0)


# (kind, mode, truncation order) of every remainder form the pointwise map has.
REMAINDER_FORMS = [
    (kind, mode, order)
    for kind in (EXPONENTIAL, ADL)
    for mode, order in (("full", 20), ("truncated", 0), ("truncated", 1), ("truncated", 6))
]

# M = 1, 8, 32 at padding 2, and the largest dense P at padding 2 (M=47,
# P=190) and at padding 1 (M=95, P=192).
DENSE_GRIDS = [
    GridSpec.create(1, 1),
    GridSpec.create(1, 8),
    GridSpec.create(1, 32),
    GridSpec.create(1, 47),
    GridSpec.create(1, 95, padding_factor=1.0),
]


class TestFusedStep:
    """On 1D grids with the dense transform pair the step is a few matrix
    products; the stage arithmetic, which an override of the remainder
    selects, is its reference.  Both forms come from one step function, so
    these tests check the derivation of the matrices, and
    `TestOneStepOracle` checks the scheme."""

    @pytest.mark.parametrize("scheme", [SCHEME_ETD1, SCHEME_ETDRK4])
    @pytest.mark.parametrize("form", REMAINDER_FORMS, ids=lambda f: f"{f[0]}-{f[1]}-{f[2]}")
    @pytest.mark.parametrize("grid", DENSE_GRIDS, ids=lambda g: f"M{g.modes_per_axis}-P{g.phys_points_per_axis}")
    def test_matches_the_stage_arithmetic(self, grid, form, scheme):
        kind, mode, order = form
        cfg = ModelConfig(kind, grid, mode=mode, truncation_order=order)
        modes = [(1, 0.05, 0.3)] + ([(2, 0.02, 1.1)] if grid.modes_per_axis > 1 else [])
        v0 = field_from_modes(grid, modes)
        scfg = StepperConfig(dt=1e-4, scheme=scheme, t_end=0.02)
        assert scfg.n_steps == 200

        def stage_remainder(c):
            return nonlinear_remainder(cfg, SpectralField(grid, c)).coeffs

        fused = integrate(cfg, scfg, v0).v.coeffs
        staged = integrate(cfg, scfg, v0, nonlinearity=stage_remainder).v.coeffs
        scale = float(np.max(np.abs(staged)))
        assert scale > 0.01
        assert float(np.max(np.abs(fused - staged))) <= 1e-12 * scale

    def test_selected_by_the_grid_and_the_override_alone(self):
        scfg = StepperConfig(dt=1e-4)
        cases = [(grid, True) for grid in DENSE_GRIDS] + [
            (GridSpec.create(1, 48), False),  # P = 194
            (GridSpec(1, 32, 194), False),
            (GridSpec.create(2, 4), False),
        ]
        for grid, dense in cases:
            for kind in (EXPONENTIAL, ADL):
                cfg = ModelConfig(kind, grid)
                assert _Stepper(cfg, scfg).fused is dense, grid
                assert not _Stepper(cfg, scfg, remainder_fn(cfg)).fused

    @pytest.mark.parametrize("scheme", [SCHEME_ETD1, SCHEME_ETDRK4])
    def test_strided_half_in_new_half_out(self, scheme):
        grid = GridSpec.create(1, 8)
        cfg = ModelConfig(ADL, grid)
        half = field_from_modes(grid, [(1, 0.05, 0.3), (3, 0.01, 0.0)]).coeffs[8:]
        spaced = np.zeros(2 * half.size, dtype=np.complex128)
        spaced[::2] = half
        strided = spaced[::2]
        assert not strided.flags.c_contiguous
        before = spaced.copy()
        worker = _Stepper(cfg, StepperConfig(dt=1e-3, scheme=scheme))
        assert worker.fused
        out = worker.advance(strided, 0.0)
        assert spaced.tobytes() == before.tobytes()
        assert out.tobytes() == worker.advance(half.copy(), 0.0).tobytes()
        kept = out.copy()
        worker.advance(out, 1e-3)
        assert out.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "stages"])
    def test_singular_state_tagged_with_its_time(self, fused):
        """Only the evaluation at the step's own state carries its time."""
        grid = GridSpec.create(1, 8)
        cfg = ModelConfig(ADL, grid)
        half = field_from_modes(grid, [(1, 1.5, 0.0)]).coeffs[8:]  # min(1 + v) = -0.5
        worker = _Stepper(cfg, StepperConfig(dt=1e-3), None if fused else remainder_fn(cfg))
        assert worker.fused is fused
        with pytest.raises(SingularityError) as exc:
            worker.advance(half, 0.25)
        assert (exc.value.time, exc.value.step_end) == (0.25, None)

    def test_steppers_sharing_matrices_keep_their_model(self):
        """Steppers of one grid, model coefficient, dt and scheme share the
        cached read-only matrices, but each applies its own nonlinearity."""
        grid = GridSpec.create(1, 8)
        scfg = StepperConfig(dt=1e-3)
        cfgs = [ModelConfig(EXPONENTIAL, grid), ModelConfig(EXPONENTIAL, grid, "truncated", 2)]
        half = field_from_modes(grid, [(1, 0.2, 0.3), (2, 0.1, 0.0)]).coeffs[8:]
        alone = []
        for cfg in cfgs:
            c = half
            for _ in range(3):
                c = _Stepper(cfg, scfg).advance(c, 0.0)
            alone.append(c)
        workers = [_Stepper(cfg, scfg) for cfg in cfgs]
        assert workers[0]._final is workers[1]._final
        assert not workers[0]._final.flags.writeable
        states = [half, half]
        for _ in range(3):
            states = [w.advance(c, 0.0) for w, c in zip(workers, states)]
        for got, want in zip(states, alone):
            assert got.tobytes() == want.tobytes()
        assert alone[0].tobytes() != alone[1].tobytes()


# Every dense 1D grid: each M whose P is at most 192 at paddings 1 and 2.
ALL_DENSE_1D_GRIDS = [
    grid
    for padding in (1, 2)
    for grid in itertools.takewhile(
        lambda g: stepper._plan(g)["dense_inverse"] is not None,
        (GridSpec.create(1, m, padding_factor=padding) for m in itertools.count(1)),
    )
]

# The multiplier rows [c, g0, g1, g2, g3] whose x blocks each matrix of a
# scheme reads, per remainder evaluation and last the new half, read off the
# Cox-Matthews stages: ETD1's state is c and its new half c and n0;
# ETDRK4's states are c, a (c, n0), b (c, n1) and s (c, n0, n2).
FUSED_READS = {
    SCHEME_ETD1: ([0], [0, 1]),
    SCHEME_ETDRK4: ([0], [0, 1], [0, 2], [0, 1, 3], [0, 1, 2, 3, 4]),
}


class TestFusedLayout:
    """`_fused_matrices` alone places the blocks of the fused step's vector
    x; `_Stepper` only takes views by the slices it returns."""

    @pytest.mark.parametrize("scheme", [SCHEME_ETD1, SCHEME_ETDRK4])
    def test_slices_tile_x_and_match_each_matrix(self, scheme):
        assert len(ALL_DENSE_1D_GRIDS) == 95 + 47
        for grid in ALL_DENSE_1D_GRIDS:
            p, n = grid.phys_points_per_axis, 2 * (grid.modes_per_axis + 1)
            # x is [g1 | c | g0 | g2 | g3]: row 0 is c, row i the i-th slot
            width = {2: p, 0: n, 1: p, 3: p, 4: p}
            starts = np.cumsum([0] + [width[row] for row in stepper._X_LAYOUT])
            block = {row: range(a, a + width[row]) for row, a in zip(stepper._X_LAYOUT, starts)}
            size, c_at, (*stages, final) = stepper._fused_matrices.__wrapped__(
                grid, 1.0, 1e-3, scheme
            )
            assert size == n + 4 * p == starts[-1]
            assert range(size)[c_at] == block[0]
            fills = [range(size)[fill] for _, _, fill in stages]
            assert fills == [block[i] for i in range(1, len(stages) + 1)], grid
            taken = [range(size)[c_at], *fills]
            assert len(set().union(*taken)) == sum(map(len, taken))  # disjoint
            if scheme == SCHEME_ETDRK4:
                assert set().union(*taken) == set(range(size))
            reads = FUSED_READS[scheme]
            assert len(stages) + 1 == len(reads)
            for (matrix, read, *_), rows in zip([*stages, final], reads):
                span = range(size)[read]
                assert span.step == 1
                assert list(span) == sorted(i for row in rows for i in block[row]), (grid, rows)
                assert matrix.shape == (n if matrix is final[0] else p, len(span))
                assert not matrix.flags.writeable

    def test_stepper_views_are_the_returned_slices(self):
        """The stepper's views are of one x, at the returned slices."""
        grid = GridSpec.create(1, 32)
        cfg = ModelConfig(EXPONENTIAL, grid)
        worker = _Stepper(cfg, StepperConfig(dt=1e-3))
        size, c_at, (*stages, (final, final_at)) = stepper._fused_matrices(
            grid, cfg.linear_coefficient, 1e-3, SCHEME_ETDRK4
        )
        x = worker._final_in.base
        assert x.shape == (size,)

        def place(view):  # address and length in float64s
            return view.__array_interface__["data"][0], view.nbytes // 8

        assert place(worker._c_view) == place(x[c_at])
        assert place(worker._final_in) == place(x[final_at])
        assert worker._final is final
        for (matrix, state, slot), (m, read, fill) in zip(worker._stages, stages, strict=True):
            assert matrix is m
            assert state.base is x and slot.base is x
            assert (place(state), place(slot)) == (place(x[read]), place(x[fill]))


@pytest.fixture
def tail_calls(monkeypatch):
    """Records the `steps` of every `_Stepper.tail` call, one list per block."""
    calls = []
    tail = _Stepper.tail

    def spy(self, c, steps):
        calls.append(list(steps))
        return tail(self, c, steps)

    monkeypatch.setattr(_Stepper, "tail", spy)
    return calls


def _march(cfg, scfg, v0, **kwargs):
    """Every sample of a march as (t, coefficient bytes), the final state last."""
    seen = []
    state = integrate(cfg, scfg, v0, observer=lambda t, v: seen.append((t, v.coeffs.tobytes())), **kwargs)
    return seen + [(state.t, state.v.coeffs.tobytes())]


# (kind, dim, M, initial mode, amplitude, scheme, dt, t_end, sample_every):
# short marches whose state falls below EXACT_TAIL_BOUND about half way.
TAIL_MARCHES = {
    "dense-exp-etdrk4-every1": (EXPONENTIAL, 1, 8, 4, 0.05, SCHEME_ETDRK4, 1e-3, 0.3, 1),
    "dense-adl-etdrk4-partial": (ADL, 1, 8, 3, 0.02, SCHEME_ETDRK4, 1e-3, 0.3, 7),
    "dense-exp-etd1-partial": (EXPONENTIAL, 1, 16, 4, 0.05, SCHEME_ETD1, 1e-3, 0.3, 7),
    "fft-adl-etdrk4-partial": (ADL, 1, 64, 3, 0.02, SCHEME_ETDRK4, 1e-3, 0.3, 7),
    "2d-exp-etd1": (EXPONENTIAL, 2, 4, (2, 1), 0.05, SCHEME_ETD1, 1e-2, 3.0, 5),
    "2d-adl-etdrk4-partial": (ADL, 2, 4, (2, 1), 0.02, SCHEME_ETDRK4, 1e-2, 1.5, 7),
}


def _tail_march(name):
    kind, dim, m, k, amplitude, scheme, dt, t_end, every = TAIL_MARCHES[name]
    grid = GridSpec.create(dim, m)
    scfg = StepperConfig(dt=dt, scheme=scheme, t_end=t_end, sample_every=every)
    return ModelConfig(kind, grid), scfg, field_from_modes(grid, [(k, amplitude, 0.3)])


class TestExactTail:
    """Once 2 sum|c_half| < EXACT_TAIL_BOUND the remainder is exactly +0.0
    (see test_models), and integrate marches each sample interval with the
    propagator alone; nothing it reports may move."""

    @pytest.mark.parametrize("name", TAIL_MARCHES)
    def test_march_is_bitwise_the_march_without_tail(self, name, monkeypatch, tail_calls):
        cfg, scfg, v0 = _tail_march(name)
        with_tail = _march(cfg, scfg, v0)
        blocks = list(tail_calls)
        monkeypatch.setattr(models, "EXACT_TAIL_BOUND", 0.0)
        without = _march(cfg, scfg, v0)
        assert len(tail_calls) == len(blocks) >= 1  # none without the tail
        assert [t for t, _ in with_tail] == [t for t, _ in without]
        assert with_tail == without
        intervals = [steps for block in blocks for steps in block]
        every, n = scfg.sample_every, scfg.n_steps
        assert len(intervals) >= 10 and all(steps <= every for steps in intervals)
        if n % every:
            assert intervals[-1] == n % every  # the last interval ends at the final step
        # Some samples lie between this bound and the earlier 1e-18, where
        # the march took full steps before; they now take the tail.
        m, shape = cfg.grid.modes_per_axis, cfg.grid.coeff_shape
        levels = [2.0 * np.abs(np.frombuffer(c, complex).reshape(shape)[..., m:]).sum() for _, c in with_tail]
        assert any(EXACT_TAIL_BOUND > level >= 1e-18 for level in levels)

    @pytest.mark.parametrize("scheme", [SCHEME_ETD1, SCHEME_ETDRK4])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_tail_is_bitwise_repeated_advance(self, dim, scheme):
        """From a state below the bound, one tail call of n steps is n
        advances, subnormal flushes included, and leaves `c` alone."""
        grid = GridSpec.create(dim, 8 if dim == 1 else 4)
        m = grid.modes_per_axis
        k = 1 if dim == 1 else (1, 1)
        half = _seed_high_modes(grid, field_from_modes(grid, [(k, 3e-19, 0.3)]).coeffs)[..., m:]
        worker = _Stepper(ModelConfig(ADL, grid), StepperConfig(dt=0.05, scheme=scheme))
        assert worker.check_sample(half, 0.0)
        before = half.tobytes()
        want = [half]
        for n in range(1, 40):
            want.append(worker.advance(want[-1], 0.0))
            got = worker.tail(half, [n])
            assert got.shape == (1,) + half.shape
            assert got[0].tobytes() == want[n].tobytes(), n
        # a stack of samples: one step each, and uneven counts
        assert worker.tail(half, [1] * 39).tobytes() == b"".join(w.tobytes() for w in want[1:])
        counts = [3, 1, 7, 2, 1, 11]
        ends = np.cumsum(counts)
        assert worker.tail(half, counts).tobytes() == b"".join(want[e].tobytes() for e in ends)
        assert half.tobytes() == before
        assert not _has_subnormal(want[-1]) and 0.0 < np.abs(want[-1]).max() < 1e-20

    @pytest.mark.parametrize("bound", ["equal", "below"])
    def test_state_at_or_above_the_bound_takes_the_full_step(self, bound, monkeypatch, tail_calls):
        grid = GridSpec.create(1, 8)
        cfg = ModelConfig(EXPONENTIAL, grid)
        v0 = field_from_modes(grid, [(1, EXACT_TAIL_BOUND, 0.3), (2, 1e-19, 0.0)])
        level = 2.0 * np.abs(v0.coeffs[8:]).sum()
        steps = []
        advance = _Stepper.advance
        monkeypatch.setattr(_Stepper, "advance", lambda self, c, t: steps.append(t) or advance(self, c, t))
        scfg = StepperConfig(dt=1e-3, t_end=1e-3)
        monkeypatch.setattr(models, "EXACT_TAIL_BOUND", level if bound == "equal" else np.nextafter(level, 0.0))
        integrate(cfg, scfg, v0)
        assert (steps, tail_calls) == ([0.0], [])
        monkeypatch.setattr(models, "EXACT_TAIL_BOUND", np.nextafter(level, np.inf))
        integrate(cfg, scfg, v0)
        assert (steps, tail_calls) == ([0.0], [[1]])

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_state_still_fails(self, poison, monkeypatch, tail_calls):
        """A NaN or inf sum is not below the bound, so a state gone
        non-finite never takes the tail and fails at the first sample
        after it, the one the check names."""
        pointwise = stepper._superlinear_pointwise

        def poisoned(cfg, v, out=None, time=None):
            if time is not None and time >= 0.1:
                return np.full_like(v, poison)
            return pointwise(cfg, v, out=out, time=time)

        monkeypatch.setattr(stepper, "_superlinear_pointwise", poisoned)
        cfg, scfg, v0 = _tail_march("dense-exp-etdrk4-every1")
        scfg = dataclasses.replace(scfg, sample_every=7)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as exc:
                integrate(cfg, scfg, v0)
        assert exc.value.time == pytest.approx(0.105)
        assert tail_calls == []

    def test_sample_check_reports_only_non_finite_states(self):
        """One |c| sum gives the tail test; an inf or NaN part raises with
        the sample's time, and a finite state whose sum overflows to inf
        is neither reported nor in the tail."""
        grid = GridSpec.create(1, 2)
        worker = _Stepper(ModelConfig(EXPONENTIAL, grid), StepperConfig(dt=1e-3))
        for bad in (np.nan, np.inf, -np.inf):
            for c in ([0.0, bad, 1e-30], [0.0, complex(0.0, bad), 0.0]):
                with pytest.raises(NonFiniteStateError) as exc:
                    worker.check_sample(np.array(c, dtype=complex), 0.25)
                assert exc.value.time == 0.25
        huge = np.array([0.0, complex(1e308, 1e308), -1e308])
        with np.errstate(over="ignore"):
            assert np.abs(huge).sum() == np.inf
            assert not worker.check_sample(huge, 0.25)
        assert worker.check_sample(np.array([0.0, 1e-18, complex(0.0, -1e-18)]), 0.25)
        assert not worker.check_sample(np.array([0.0, EXACT_TAIL_BOUND, 0.0]), 0.25)

    def test_truncated_mode_and_override_never_take_the_tail(self, tail_calls):
        grid = GridSpec.create(1, 8)
        scfg = StepperConfig(dt=1e-3, t_end=0.3, sample_every=7)
        v0 = field_from_modes(grid, [(4, 0.05, 0.3)])
        for kind in (EXPONENTIAL, ADL):
            full = ModelConfig(kind, grid)
            truncated = ModelConfig(kind, grid, mode="truncated", truncation_order=2)
            assert _Stepper(full, scfg).tail_bound == EXACT_TAIL_BOUND
            assert _Stepper(truncated, scfg).tail_bound == 0.0
            assert _Stepper(full, scfg, remainder_fn(full)).tail_bound == 0.0
            state = integrate(truncated, scfg, v0)
            assert 2.0 * np.abs(state.v.coeffs).sum() < EXACT_TAIL_BOUND
            state = integrate(
                full, scfg, v0, nonlinearity=lambda c: nonlinear_remainder(full, SpectralField(grid, c)).coeffs
            )
            assert 2.0 * np.abs(state.v.coeffs).sum() < EXACT_TAIL_BOUND
        assert tail_calls == []

    @pytest.mark.parametrize("parts", ["signed_zeros", "subnormal", "crossing"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_tail_at_the_stack_budget_is_repeated_advance(self, dim, parts):
        """One tail call of n steps is n advances where n fills the stack
        (one piece) and where it overflows it by one step (two), from
        states with +-0.0 parts, subnormal parts, or normal parts that
        the propagator takes below the smallest normal mid-interval."""
        grid = GridSpec.create(dim, 8 if dim == 1 else 4)
        worker = _Stepper(ModelConfig(ADL, grid), StepperConfig(dt=0.05))
        rng = np.random.default_rng(2025)
        shape = worker.propagator.shape + (2,)
        low, high = {"signed_zeros": (-40, -21), "subnormal": (-323, -308), "crossing": (-307.6, -300)}[parts]
        values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(low, high, shape)
        if parts == "signed_zeros":
            values[rng.random(shape) < 0.4] = 0.0
            values[rng.random(shape) < 0.4] = -0.0
            assert np.signbit(values[values == 0.0]).any()
        half = values.view(np.complex128)[..., 0]
        assert worker.check_sample(half, 0.0)
        before = half.tobytes()
        rows = len(worker._tail_stack())
        budgets = [1, 2, rows - 1, rows, rows + 1]
        want, advanced = {}, half
        for n in range(1, budgets[-1] + 1):
            advanced = worker.advance(advanced, 0.0)
            want[n] = advanced.tobytes()
        for n in budgets:
            assert worker.tail(half, [n]).tobytes() == want[n], n
            # n one-step samples: prefix products over one or two pieces
            assert worker.tail(half, [1] * n).tobytes() == b"".join(want[j] for j in range(1, n + 1)), n
        assert half.tobytes() == before
        if parts == "crossing":  # normal at the start, flushed within the interval
            assert np.all(np.abs(values) >= np.finfo(np.float64).tiny)
            flushed = np.frombuffer(want[rows], dtype=np.float64) == 0.0
            assert 0 < flushed.sum() < flushed.size

    def test_interval_past_the_stack_runs_in_pieces(self, monkeypatch, tail_calls):
        """400-step sample intervals span two stack pieces at 1D M=16 and
        still give the march with the tail turned off, bit for bit."""
        grid = GridSpec.create(1, 16)
        cfg = ModelConfig(EXPONENTIAL, grid)
        scfg = StepperConfig(dt=1e-3, t_end=4.0, sample_every=400)
        v0 = field_from_modes(grid, [(2, 0.05, 0.3)])
        assert len(_Stepper(cfg, scfg)._tail_stack()) < 400
        with_tail = _march(cfg, scfg, v0)
        assert tail_calls == [[400, 400, 400, 400]]
        monkeypatch.setattr(models, "EXACT_TAIL_BOUND", 0.0)
        assert _march(cfg, scfg, v0) == with_tail
        assert len(tail_calls) == 1

    @pytest.mark.parametrize(
        "dim, m, rows",
        [(1, 8, 455), (1, 32, 124), (1, 1023, 4), (2, 4, 91), (2, 16, 7), (2, 26, 3), (2, 32, 3)],
    )
    def test_stack_takes_at_most_64_kib(self, dim, m, rows):
        """As many rows as fit in 64 KiB, row 0 for the state and the rest
        the propagator per real and imaginary part; three rows, below
        glibc's 128 KiB mmap threshold, where a half takes more than a third
        of 64 KiB (2D M >= 26)."""
        worker = _Stepper(ModelConfig(EXPONENTIAL, GridSpec.create(dim, m)), StepperConfig(dt=1e-3))
        stack = worker._tail_stack()
        assert len(stack) == rows
        assert stack.nbytes <= _STACK_BYTES or (rows == 3 and stack.nbytes < 128 * 1024)
        assert stack[1:].tobytes() == np.repeat(worker.propagator, 2, axis=-1).tobytes() * (rows - 1)
        assert worker._tail_stack() is stack

    def test_2d_m32_tail_runs_on_three_rows(self, monkeypatch, tail_calls):
        """A 2D adl M=32 march of 0.02 sin(2x + y) falls below the bound near
        t = 0.5; a full array there takes more than 64 KiB, so each later
        50-step interval is a block of its own, one tail call in pieces of
        three steps, and the march is the one without the tail, bit for bit."""
        grid = GridSpec.create(2, 32)
        cfg = ModelConfig(ADL, grid)
        scfg = StepperConfig(dt=1e-3, t_end=1.0, sample_every=50)
        v0 = field_from_modes(grid, [((2, 1), 0.02, 0.0)])
        assert len(_Stepper(cfg, scfg)._tail_stack()) == 3
        with_tail = _march(cfg, scfg, v0)
        calls = len(tail_calls)
        assert calls >= 9 and all(block == [50] for block in tail_calls)
        monkeypatch.setattr(models, "EXACT_TAIL_BOUND", 0.0)
        assert _march(cfg, scfg, v0) == with_tail
        assert len(tail_calls) == calls

    @pytest.mark.parametrize("every", [1, 7, 50])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_sample_blocks_are_the_march_without_tail(self, dim, every, monkeypatch, tail_calls):
        """The tail's samples come in blocks of as many full arrays as fit in
        64 KiB (63 at 1D M=32, 14 at 2D M=8), the last block partial; the
        observer sees the march without the tail, bit for bit, and a field
        it keeps keeps its values after later blocks."""
        m, k, rows, dt, t_end = (32, 4, 63, 1e-3, 4.0) if dim == 1 else (8, (2, 1), 14, 1e-2, 10.0)
        grid = GridSpec.create(dim, m)
        scfg = StepperConfig(dt=dt, t_end=t_end, sample_every=every)
        cfg = ModelConfig(EXPONENTIAL, grid)
        v0 = field_from_modes(grid, [(k, 0.05, 0.3)])
        kept = []
        state = integrate(cfg, scfg, v0, observer=lambda t, v: kept.append((t, v, v.coeffs.tobytes())))
        blocks = [len(block) for block in tail_calls]
        assert len(blocks) >= 2 and set(blocks[:-1]) == {rows} and 0 < blocks[-1] < rows
        assert all(v.coeffs.tobytes() == seen for _, v, seen in kept)
        with_tail = [(t, seen) for t, _, seen in kept] + [(state.t, state.v.coeffs.tobytes())]
        monkeypatch.setattr(models, "EXACT_TAIL_BOUND", 0.0)
        assert _march(cfg, scfg, v0) == with_tail
        assert len(tail_calls) == len(blocks)

    def test_march_outside_the_tail_allocates_no_stack(self, monkeypatch):
        made = []

        class Recording(_Stepper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(stepper, "_Stepper", Recording)
        cfg, scfg, v0 = _tail_march("dense-exp-etd1-partial")
        integrate(cfg, scfg, v0)
        integrate(cfg, dataclasses.replace(scfg, t_end=0.1), v0)
        integrate(ModelConfig(EXPONENTIAL, cfg.grid, mode="truncated", truncation_order=2), scfg, v0)
        assert [worker._stack is None for worker in made] == [False, True, True]


def _phi_mp(z: float) -> tuple:
    """(phi_0, ..., phi_3)(z) from their definitions in 40-digit arithmetic."""
    if z == 0.0:
        return 1.0, 1.0, 0.5, 1.0 / 6.0
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        phi = [mpmath.exp(z)]
        for m in range(1, 4):
            phi.append((phi[-1] - 1 / mpmath.factorial(m - 1)) / z)
        return tuple(float(value) for value in phi)


def _cox_matthews_step(cfg, v, dt, scheme):
    """One ETD1 or ETDRK4 step of the full coefficients of `v`, written out
    from Cox & Matthews (J. Comput. Phys. 176, 2002) for v_t = L v + N(v),
    L = -c |k|^4 per mode and N the `nonlinear_remainder`."""
    grid = cfg.grid
    k = np.arange(-grid.modes_per_axis, grid.modes_per_axis + 1).astype(float)
    k2 = k**2 if grid.dim == 1 else k[:, None] ** 2 + k[None, :] ** 2
    z = -cfg.linear_coefficient * k2**2 * dt

    def phis(arg):
        return np.array([_phi_mp(x) for x in arg.ravel()]).T.reshape((4,) + arg.shape)

    def n(coeffs):
        return nonlinear_remainder(cfg, SpectralField(grid, coeffs)).coeffs

    e, phi1, phi2, phi3 = phis(z)
    u, nu = v.coeffs, n(v.coeffs)
    if scheme == SCHEME_ETD1:
        return e * u + dt * phi1 * nu
    e2, phi1_2, _, _ = phis(z / 2)
    a = e2 * u + dt / 2 * phi1_2 * nu
    na = n(a)
    b = e2 * u + dt / 2 * phi1_2 * na
    nb = n(b)
    c = e2 * a + dt / 2 * phi1_2 * (2 * nb - nu)
    nc = n(c)
    return e * u + dt * (
        (phi1 - 3 * phi2 + 4 * phi3) * nu
        + 2 * (phi2 - 2 * phi3) * (na + nb)
        + (4 * phi3 - phi2) * nc
    )


class TestOneStepOracle:
    """One step from a nonlinear state against `_cox_matthews_step`, which
    shares no code with the stepper: the fused and stage forms of the step
    are derived from one function, so comparing them cannot find an error
    in the scheme itself."""

    @pytest.mark.parametrize("scheme", [SCHEME_ETD1, SCHEME_ETDRK4])
    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    @pytest.mark.parametrize("form", ["fused", "stages", "2d"])
    def test_step_matches_the_written_out_scheme(self, form, kind, scheme):
        grid = GridSpec.create(2, 4) if form == "2d" else GridSpec.create(1, 8)
        cfg = ModelConfig(kind, grid)
        ks = [1, 2] if grid.dim == 1 else [(1, 0), (1, 2)]
        v0 = field_from_modes(grid, [(ks[0], 0.2, 0.3), (ks[1], 0.05, 1.1)])
        dt = 2e-3
        scfg = StepperConfig(dt=dt, scheme=scheme, t_end=dt)
        assert scfg.n_steps == 1
        assert _Stepper(cfg, scfg).fused is (grid.dim == 1)
        override = None
        if form == "stages":

            def override(c):
                return nonlinear_remainder(cfg, SpectralField(grid, c)).coeffs

        got = integrate(cfg, scfg, v0, nonlinearity=override).v.coeffs
        want = _cox_matthews_step(cfg, v0, dt, scheme)
        scale = float(np.max(np.abs(v0.coeffs)))
        assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


class TestDilationSymmetry:
    """Both equations commute with x -> 2x, t -> 16t on the torus.

    Doubling the wavenumber of the initial data, the mode count, and the
    collocation resolution while cutting dt by 16 must reproduce the coarse
    trajectory on the even modes, because every per-mode propagator argument
    and every collocation sample is reproduced exactly.
    """

    @pytest.mark.parametrize("kind", [EXPONENTIAL, ADL])
    def test_half_period_equivalence(self, kind):
        coarse_grid = GridSpec(1, 4, 20, padding_factor=1.0)
        fine_grid = GridSpec(1, 8, 40, padding_factor=1.0)
        amplitude = 0.25
        coarse0 = field_from_modes(coarse_grid, [(1, amplitude, 0.0)])
        fine0 = field_from_modes(fine_grid, [(2, amplitude, 0.0)])
        h, n = 1e-3, 5
        coarse = integrate(
            ModelConfig(kind, coarse_grid),
            StepperConfig(dt=16 * h, t_end=16 * h * n),
            coarse0,
        )
        fine = integrate(
            ModelConfig(kind, fine_grid),
            StepperConfig(dt=h, t_end=h * n),
            fine0,
        )
        for k in range(-4, 5):
            assert abs(fine.v.coeff(2 * k) - coarse.v.coeff(k)) < 1e-15
        for k in range(-7, 8, 2):
            assert abs(fine.v.coeff(k)) < 1e-15


class TestConvergenceOrder:
    """Observed orders against a fine reference on a smooth short run."""

    GRID = GridSpec.create(1, 4)
    MODES = [(1, 0.4, 0.0), (2, 0.1, 0.3)]
    T = 0.25

    def final_state(self, scheme, dt):
        cfg = ModelConfig(EXPONENTIAL, self.GRID)
        v0 = field_from_modes(self.GRID, self.MODES)
        return integrate(cfg, StepperConfig(dt=dt, scheme=scheme, t_end=self.T), v0).v.coeffs

    def observed_orders(self, scheme, dts):
        ref = self.final_state(SCHEME_ETDRK4, self.T / 5120)
        errors = [float(np.max(np.abs(self.final_state(scheme, dt) - ref))) for dt in dts]
        return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]

    def test_etdrk4_is_fourth_order(self):
        orders = self.observed_orders(SCHEME_ETDRK4, [self.T / 80, self.T / 160, self.T / 320])
        for order in orders:
            assert 3.7 < order < 4.3

    def test_etd1_is_first_order(self):
        orders = self.observed_orders(SCHEME_ETD1, [self.T / 50, self.T / 100, self.T / 200])
        for order in orders:
            assert 0.8 < order < 1.2

"""Tests for the randomized property checks behind `crystalsurf validate`.

The oracle for the four ensemble checks is their per-field form: each
field taken as one row of `_ensemble`'s stacks and checked with the
public one-field norm and transform functions.  The checks check each
stack with the stacked kernels; they must return the oracle's
CheckResult at every seed.
"""

import math

import numpy as np
import pytest

from crystalsurf import spectral, stepper, theory, validation
from crystalsurf.validation import CheckResult

ENSEMBLE_GRIDS = [(1, 4), (1, 9), (1, 16), (2, 3), (2, 6)]
SEEDS = [validation.DEFAULT_SEED, 0, 7, 2**40 + 3]


def per_field(rng, count):
    for grid, coeffs in validation._ensemble(rng, count):
        for c in coeffs:
            yield spectral.SpectralField(grid, c)


def oracle_parseval(rng):
    worst = 0.0
    for f in per_field(rng, 200):
        lhs = spectral.l2_norm(f)
        rhs = math.sqrt(spectral.TWO_PI**f.grid.dim * float(np.sum(np.abs(f.coeffs) ** 2)))
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    return CheckResult("parseval", worst <= 1e-10, f"worst relative gap {worst:.3e}")


def oracle_roundtrip(rng):
    worst = 0.0
    for f in per_field(rng, 200):
        back = spectral.from_physical(spectral.to_physical(f), f.grid)
        scale = max(1.0, float(np.max(np.abs(f.coeffs))))
        worst = max(worst, float(np.max(np.abs(back.coeffs - f.coeffs))) / scale)
    return CheckResult("roundtrip", worst <= 1e-12, f"worst scaled gap {worst:.3e}")


def oracle_linf_bound(rng):
    worst = -math.inf
    for f in per_field(rng, 1000):
        worst = max(worst, spectral.linf_norm(f) - spectral.wiener_norm(f, 0.0))
    return CheckResult("linf_bound", worst <= 1e-10, f"worst excess {worst:.3e}")


def oracle_interpolation(rng):
    pairs = [(float(s), float(r)) for r in range(5) for s in range(r + 1)]
    failures = total = 0
    for f in per_field(rng, 1000):
        columns = theory.interpolation_columns(f.grid, f.coeffs[np.newaxis], pairs)
        total += len(columns)
        failures += sum(not c.passed[0] for c in columns)
    return CheckResult("interpolation", failures == 0, f"{total - failures}/{total} instances hold")


ORACLES = {
    "parseval": oracle_parseval,
    "roundtrip": oracle_roundtrip,
    "linf_bound": oracle_linf_bound,
    "interpolation": oracle_interpolation,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(ORACLES))
def test_stacked_check_equals_the_per_field_loop(name, seed):
    check = getattr(validation, f"check_{name}")
    result = check(np.random.default_rng(seed))
    assert result == ORACLES[name](np.random.default_rng(seed))
    assert result.passed is True


@pytest.mark.parametrize("seed", SEEDS)
def test_ensemble_stacks_cycle_the_grids_in_chunks(seed):
    """Field i lies on grid i % 5: chunk c holds fields c 5 rows ..
    (c + 1) 5 rows - 1, one stack per grid, also in a last chunk that is
    not full.  Every row is exactly Hermitian, and a seed gives the same
    stacks every time."""
    rows = validation._ENSEMBLE_ROWS
    count = 5 * rows + 23
    stacks = list(validation._ensemble(np.random.default_rng(seed), count))
    grids = [spectral.GridSpec.create(dim, m) for dim, m in ENSEMBLE_GRIDS]
    assert [grid for grid, _ in stacks] == grids * 2
    sizes = [len(coeffs) for _, coeffs in stacks]
    assert sizes == [rows] * 5 + [len(range(g, 23, 5)) for g in range(5)]
    for g in range(5):
        assert sizes[g] + sizes[5 + g] == len(range(g, count, 5))
    for grid, coeffs in stacks:
        assert coeffs.shape[1:] == grid.coeff_shape
        mirror = np.conj(np.flip(coeffs, axis=tuple(range(1, grid.dim + 1))))
        assert np.array_equal(coeffs, mirror)
    again = validation._ensemble(np.random.default_rng(seed), count)
    for (grid, coeffs), (grid2, coeffs2) in zip(stacks, again, strict=True):
        assert grid2 == grid
        assert coeffs2.tobytes() == coeffs.tobytes()


@pytest.mark.parametrize("dim, m", ENSEMBLE_GRIDS)
def test_random_field_draws_real_then_imaginary_parts(dim, m):
    grid = spectral.GridSpec.create(dim, m)
    rng = np.random.default_rng(11)
    f = validation.random_field(grid, rng, scale=0.3)
    rng = np.random.default_rng(11)
    raw = (rng.standard_normal(grid.coeff_shape) + 1j * rng.standard_normal(grid.coeff_shape)) * 0.3
    assert f.coeffs.tobytes() == (0.5 * (raw + np.conj(np.flip(raw)))).tobytes()
    assert np.array_equal(f.coeffs, np.conj(np.flip(f.coeffs)))


# The memo of `_ensemble` inside run_checks.  Its oracle is a fresh draw:
# a stack taken from the memo, and every draw after it, must have the bits
# a generator drawing afresh from the same state gives.

def spy_draws(monkeypatch):
    """Grids of the stacks drawn through `_hermitian_stack`, in order."""
    drawn = []
    real = validation._hermitian_stack

    def spy(grid, draws, scales):
        drawn.append(grid)
        return real(grid, draws, scales)

    monkeypatch.setattr(validation, "_hermitian_stack", spy)
    return drawn


def ensemble_draws(drawn):
    grids = {spectral.GridSpec.create(dim, m) for dim, m in ENSEMBLE_GRIDS}
    return sum(grid in grids for grid in drawn)


def run_probes(monkeypatch, *probes):
    """run_checks over the given checks alone, in order."""
    monkeypatch.setattr(validation, "ALL_CHECKS", probes)
    return validation.run_checks()


def test_every_run_draws_each_ensemble_stack_once(monkeypatch):
    """200 + 200 + 1000 + 1000 fields in chunks of 5 x 40 made 60 stack
    draws; the first 200 are the first chunk of the 1000, so 25 do.  The
    two others are linear_flow's one-field draws, on a grid of its own.
    A second run draws again: the first one dropped its stacks."""
    drawn = spy_draws(monkeypatch)
    for _ in range(2):
        drawn.clear()
        validation.run_checks()
        assert ensemble_draws(drawn) == 25
        assert len(drawn) == 27
        assert validation._DRAWN.get() is None


def test_a_run_that_raises_drops_its_stacks(monkeypatch):
    def check_boom(rng):
        assert len(validation._DRAWN.get()) == 5
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        run_probes(monkeypatch, validation.check_parseval, check_boom)
    assert validation._DRAWN.get() is None
    drawn = spy_draws(monkeypatch)
    validation.check_parseval(np.random.default_rng(0))
    assert ensemble_draws(drawn) == 5


@pytest.mark.parametrize("name", list(ORACLES))
def test_a_check_called_alone_draws_its_own_stacks(monkeypatch, name):
    check = getattr(validation, f"check_{name}")
    drawn = spy_draws(monkeypatch)
    first = check(np.random.default_rng(3))
    assert check(np.random.default_rng(3)) == first
    assert ensemble_draws(drawn) == 2 * (5 if name in ("parseval", "roundtrip") else 25)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_hit_leaves_the_generator_where_a_draw_would(monkeypatch, seed):
    """The second generator takes the first one's stacks (the very arrays),
    yet its state and the draws after it are a fresh generator's."""
    seen = {}

    def check_probe(rng):
        first, second = np.random.default_rng(seed), np.random.default_rng(seed)
        seen["first"] = list(validation._ensemble(first, 300))
        seen["second"] = list(validation._ensemble(second, 300))
        seen["after"] = second.bit_generator.state, second.standard_normal(7)
        return CheckResult("probe", True, "")

    run_probes(monkeypatch, check_probe)
    for (grid, coeffs), (grid2, coeffs2) in zip(seen["first"], seen["second"], strict=True):
        assert grid2 == grid and coeffs2 is coeffs
    fresh = np.random.default_rng(seed)
    stacks = list(validation._ensemble(fresh, 300))
    for (_, coeffs), (_, coeffs2) in zip(stacks, seen["second"], strict=True):
        assert coeffs2.tobytes() == coeffs.tobytes()
    assert seen["after"][0] == fresh.bit_generator.state
    assert seen["after"][1].tobytes() == fresh.standard_normal(7).tobytes()


def test_a_run_holds_its_stacks_read_only(monkeypatch):
    seen = []

    def check_probe(rng):
        seen.extend(coeffs for _, coeffs in validation._ensemble(rng, 200))
        seen.extend(coeffs for _, coeffs in validation._ensemble(np.random.default_rng(0), 200))
        return CheckResult("probe", True, "")

    run_probes(monkeypatch, check_probe)
    assert len(seen) == 10
    for coeffs in seen:
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0] = 0.0
    _, coeffs = next(validation._ensemble(np.random.default_rng(0), 200))
    assert coeffs.flags.writeable


@pytest.mark.parametrize("seed", SEEDS)
def test_a_run_returns_the_per_field_results(seed):
    """Stacks taken from the memo give each check the oracle's result."""
    results = {r.name: r for r in validation.run_checks(seed=seed)}
    for name, oracle in ORACLES.items():
        assert results[name] == oracle(np.random.default_rng(seed))


def oracle_phi_functions():
    """check_phi_functions as one _phi_oracle call per (z, m)."""
    zs = np.concatenate([[0.0], -np.logspace(-10, 6, 120)])
    vals = stepper.phi_functions(zs)
    worst = 0.0
    bounds_ok = True
    for m in range(4):
        for z, got in zip(zs, vals[m]):
            ref = validation._phi_oracle(float(z), m)
            if not (0.0 <= got <= 1.0 + 1e-15):
                bounds_ok = False
            if ref != 0.0:
                worst = max(worst, abs(got - ref) / abs(ref))
    detail = f"worst relative error {worst:.3e}, bounds {'ok' if bounds_ok else 'violated'}"
    return CheckResult("phi_functions", worst <= 1e-12 and bounds_ok, detail)


def test_phi_check_equals_one_oracle_call_per_z_and_m():
    result = validation.check_phi_functions(np.random.default_rng(0))
    assert result == oracle_phi_functions()
    assert result.passed is True


# Pins of the ensemble checks' tolerances: each check must fail on an error
# about three times its tolerance, injected into one side of its comparison.
# The ensemble's Wiener norms reach about 1.6e3 and its coefficients 24.


def with_leading_stack(monkeypatch, grid, coeffs):
    """Yield one extra stack before `_ensemble`'s own."""
    real = validation._ensemble

    def ensemble(rng, count):
        yield grid, coeffs
        yield from real(rng, count)

    monkeypatch.setattr(validation, "_ensemble", ensemble)


def scaled(monkeypatch, owner, name, factor, index=None):
    """Patch owner.name to scale its result (or its result[index])."""
    real = getattr(owner, name)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        if index is None:
            return out * factor
        return tuple(x * factor if i == index else x for i, x in enumerate(out))

    monkeypatch.setattr(owner, name, patched)


def test_parseval_tolerance_refuses_a_3e10_gap(monkeypatch):
    """1e-10 relative: the quadrature and the coefficient sum of one field
    differ by the rounding of one transform and two sums, a few ulps
    (worst 3.5e-16 over the ensemble at the default seed); a quadrature
    off by 3e-10 is a defect, in the transform or in its weights."""
    scaled(monkeypatch, spectral, "l2_quadrature", 1.0 + 3e-10)
    result = validation.check_parseval(np.random.default_rng(validation.DEFAULT_SEED))
    assert result.passed is False


def test_roundtrip_tolerance_refuses_a_3e12_gap(monkeypatch):
    """1e-12 of max(1, max|c|): an inverse and a forward transform round
    the coefficients by a few ulps of the largest of them (worst 5.5e-16
    at the default seed); a forward transform off by 3e-12 is a defect."""
    scaled(monkeypatch, spectral, "_coeffs_from_phys", 1.0 + 3e-12)
    result = validation.check_roundtrip(np.random.default_rng(validation.DEFAULT_SEED))
    assert result.passed is False


@pytest.mark.parametrize("factor", [1.0 + 3e-10, 1.0 - 3e-10])
def test_linf_tolerance_refuses_a_3e10_excess_or_shortfall(monkeypatch, factor):
    """1e-10, absolute above the Wiener norm and relative below max|c(k)|:
    the samples round by a few ulps of the Wiener norm, which reaches
    1.6e3 here (an ulp of 2.3e-13).  The constant field 1 meets both
    bounds with equality (max sample = Wiener norm = max|c(k)| = 1), so a
    max sample off by 3e-10 either way must fail the check."""
    grid = spectral.GridSpec.create(1, 4)
    constant = np.zeros((1,) + grid.coeff_shape, dtype=complex)
    constant[0, grid.modes_per_axis] = 1.0
    with_leading_stack(monkeypatch, grid, constant)
    rng = np.random.default_rng(validation.DEFAULT_SEED)
    assert validation.check_linf_bound(rng).passed is True
    scaled(monkeypatch, spectral, "extremes", factor, index=2)
    rng = np.random.default_rng(validation.DEFAULT_SEED)
    assert validation.check_linf_bound(rng).passed is False


def test_interpolation_slack_refuses_a_3e12_excess(monkeypatch):
    """1e-12 relative: both sides are a norm sum and at most two powers, a
    few ulps each.  A one-wavenumber field meets every instance with
    equality, |f|_s = 2|k|^s, so a |f|_1 3e-12 too large must fail the
    pairs (1, r > 1), whose right side does not use it; the ensemble's
    own fields hold with at least 3% to spare."""
    grid = spectral.GridSpec.create(1, 4)
    cosine = np.zeros((1,) + grid.coeff_shape, dtype=complex)
    cosine[0, grid.modes_per_axis + 2] = cosine[0, grid.modes_per_axis - 2] = 1.0
    with_leading_stack(monkeypatch, grid, cosine)
    rng = np.random.default_rng(validation.DEFAULT_SEED)
    assert validation.check_interpolation(rng).passed is True
    real = theory._coeff_norms

    def norms(grid, coeffs, wiener_orders=()):
        wiener, sobolev = real(grid, coeffs, wiener_orders=wiener_orders)
        return wiener * np.where(np.array(wiener_orders) == 1.0, 1.0 + 3e-12, 1.0), sobolev

    monkeypatch.setattr(theory, "_coeff_norms", norms)
    rng = np.random.default_rng(validation.DEFAULT_SEED)
    result = validation.check_interpolation(rng)
    assert result.passed is False
    assert result.detail == "15012/15015 instances hold"


def test_binomial_check_counts_a_wrong_coefficient(monkeypatch):
    """C(20, 10) off by one breaks the 18 instances that use it on one
    side only: the check fails and counts them, while its spot values
    C(4, 2) still hold."""
    real = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: real(n, k) + ((n, k) == (20, 10)))
    result = validation.check_binomial_identities(np.random.default_rng(0))
    assert result.passed is False
    assert result.detail == "1771 subset-of-subset instances, 18 failures"


def test_phi_check_reports_values_above_one(monkeypatch):
    """phi_m(z) for z <= 0 lies in [0, 1]; doubled values break that bound."""
    real = stepper.phi_functions
    monkeypatch.setattr(stepper, "phi_functions", lambda z: 2.0 * np.array(real(z)))
    result = validation.check_phi_functions(np.random.default_rng(0))
    assert result.passed is False
    assert result.detail.endswith(", bounds violated")

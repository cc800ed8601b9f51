"""Tests for the randomized property checks behind `crystalsurf validate`.

The oracle for the four ensemble checks is their per-field form: one
`random_field` per field, drawn in the ensemble's order, checked with the
public one-field norm and transform functions.  The checks draw their
fields into one stack per grid and check each stack with the stacked
kernels; they must return the oracle's CheckResult at every seed.
"""

import math

import numpy as np
import pytest

from crystalsurf import spectral, theory, validation
from crystalsurf.validation import CheckResult

ENSEMBLE_GRIDS = [(1, 4), (1, 9), (1, 16), (2, 3), (2, 6)]
SEEDS = [validation.DEFAULT_SEED, 0, 7, 2**40 + 3]


def per_field(rng, count):
    grids = [spectral.GridSpec.create(dim, m) for dim, m in ENSEMBLE_GRIDS]
    for i in range(count):
        yield validation.random_field(grids[i % len(grids)], rng, scale=10.0 ** rng.uniform(-3, 1))


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
        checks = theory.interpolation_checks(f, pairs)
        total += len(checks)
        failures += sum(not c.passed for c in checks)
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
def test_ensemble_rows_are_the_per_field_draws(seed):
    """Row b of grid g's stack in chunk c is field 5 (c rows + b) + g of the
    per-field loop, bit for bit, also in a last chunk that is not full."""
    rows = validation._ENSEMBLE_ROWS
    count = 5 * rows + 23
    stacks = list(validation._ensemble(np.random.default_rng(seed), count))
    fields = list(per_field(np.random.default_rng(seed), count))
    assert len(stacks) == 10
    assert [grid for grid, _ in stacks] == [f.grid for f in fields[:5]] * 2
    assert sum(len(coeffs) for _, coeffs in stacks) == count
    for n, (grid, coeffs) in enumerate(stacks):
        chunk, g = divmod(n, 5)
        for b, row in enumerate(coeffs):
            assert row.tobytes() == fields[5 * (chunk * rows + b) + g].coeffs.tobytes()


@pytest.mark.parametrize("dim, m", ENSEMBLE_GRIDS)
def test_random_field_draws_real_then_imaginary_parts(dim, m):
    grid = spectral.GridSpec.create(dim, m)
    rng = np.random.default_rng(11)
    f = validation.random_field(grid, rng, scale=0.3)
    rng = np.random.default_rng(11)
    raw = (rng.standard_normal(grid.coeff_shape) + 1j * rng.standard_normal(grid.coeff_shape)) * 0.3
    assert f.coeffs.tobytes() == (0.5 * (raw + np.conj(np.flip(raw)))).tobytes()
    assert np.array_equal(f.coeffs, np.conj(np.flip(f.coeffs)))

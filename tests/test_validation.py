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

from crystalsurf import spectral, theory, validation
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

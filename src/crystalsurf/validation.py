"""Named property checks behind the `validate` CLI command.

Each check is a function returning a CheckResult; run_checks executes a
filtered subset in declaration order with a deterministic RNG seed, so the
suite is reproducible run to run.  These are the machine-checkable stand-ins
for the analytical facts the solver relies on: exact transform inverses,
Parseval, the max-norm bound by the Wiener norm, the interpolation
inequality, the resummation identities, binomial coefficient algebra, phi
function accuracy, the exactness of the linear subflow, and the
coefficient-level audit of the exponential margin.

The four randomized checks (parseval, roundtrip, linf_bound,
interpolation) draw their fields as coefficient stacks, one per grid of a
small 1D/2D ensemble for every chunk of up to 40 fields per grid, in the
order `random_field` draws one field at a time, so every field has the
bits it would have alone.  linf_bound and interpolation check each stack
with one stacked inverse transform or norm pass, whose row b is field b's
own result bit for bit; parseval and roundtrip call the public one-field
functions on each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, spectral, stepper, theory

DEFAULT_SEED = 20250822


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _hermitian_stack(grid: spectral.GridSpec, draws: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Coefficient stack, (B,) + grid.coeff_shape, from real draws shaped
    (B, 2) + grid.coeff_shape and one scale per field: row b is
    (draws[b, 0] + i draws[b, 1]) scales[b], averaged with its conjugate
    mirror so it is exactly Hermitian.  Elementwise, so every row has the
    bits it would have alone."""
    raw = (draws[:, 0] + 1j * draws[:, 1]) * scales.reshape((-1,) + (1,) * grid.dim)
    return 0.5 * (raw + np.conj(np.flip(raw, axis=tuple(range(1, grid.dim + 1)))))


def random_field(grid: spectral.GridSpec, rng: np.random.Generator, scale: float = 1.0):
    """Random band-limited real field with coefficients of the given scale,
    averaged with their conjugate mirror so they are exactly Hermitian.

    The real parts are drawn first, then the imaginary parts; the one-field
    case of `_ensemble`."""
    draws = rng.standard_normal((1, 2) + grid.coeff_shape)
    return spectral.SpectralField(grid, _hermitian_stack(grid, draws, np.array([scale]))[0])


# Fields per grid in one chunk of `_ensemble`: the largest grid's stack and
# its samples then stay near 100 and 200 KB, so the checks add little to
# the peak memory of a validate run.
_ENSEMBLE_ROWS = 40


def _ensemble(rng: np.random.Generator, count: int):
    """`count` random fields cycling over a few 1D and 2D grids, yielded as
    (grid, coefficient stack) pairs, one per grid for each chunk of at most
    _ENSEMBLE_ROWS fields per grid.

    Field i lies on grid i % 5 and is drawn in `random_field`'s order at
    scale 10^U(-3, 1), the scale drawn first: row b of grid g's stack in
    chunk c is field 5 (c _ENSEMBLE_ROWS + b) + g, bit for bit the field
    `random_field` draws from the same stream.  The draws go straight into
    one preallocated array per grid, and each chunk's stack is made
    Hermitian in one operation.
    """
    grids = [
        spectral.GridSpec.create(1, 4),
        spectral.GridSpec.create(1, 9),
        spectral.GridSpec.create(1, 16),
        spectral.GridSpec.create(2, 3),
        spectral.GridSpec.create(2, 6),
    ]
    n = len(grids)
    rows = min(_ENSEMBLE_ROWS, -(-count // n))
    draws = [np.empty((rows, 2) + grid.coeff_shape) for grid in grids]
    scales = np.empty((n, rows))
    for start in range(0, count, n * rows):
        stop = min(count, start + n * rows)
        for i in range(start, stop):
            b, g = divmod(i - start, n)
            scales[g, b] = 10.0 ** rng.uniform(-3, 1)
            rng.standard_normal(out=draws[g][b])
        for g, grid in enumerate(grids):
            size = len(range(start + g, stop, n))
            yield grid, _hermitian_stack(grid, draws[g][:size], scales[g, :size])


def check_parseval(rng: np.random.Generator) -> CheckResult:
    """Grid-quadrature L2 norm vs (2 pi)^{d/2} x coefficient norm, 1e-10 rel."""
    gaps = []
    for grid, coeffs in _ensemble(rng, 200):
        lhs = np.array([spectral.l2_norm(spectral.SpectralField(grid, c)) for c in coeffs])
        squares = np.sum(np.abs(coeffs) ** 2, axis=tuple(range(-grid.dim, 0)))
        rhs = np.sqrt(spectral.TWO_PI**grid.dim * squares)
        gaps.append(np.abs(lhs - rhs) / np.maximum(rhs, 1e-300))
    worst = float(np.max(np.concatenate(gaps)))
    return CheckResult("parseval", worst <= 1e-10, f"worst relative gap {worst:.3e}")


def check_roundtrip(rng: np.random.Generator) -> CheckResult:
    """to_physical then from_physical reproduces coefficients to 1e-12."""
    gaps = []
    for grid, coeffs in _ensemble(rng, 200):
        axes = tuple(range(-grid.dim, 0))
        back = np.array([
            spectral.from_physical(spectral.to_physical(spectral.SpectralField(grid, c)), grid).coeffs
            for c in coeffs
        ])
        scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=axes))
        gaps.append(np.max(np.abs(back - coeffs), axis=axes) / scale)
    worst = float(np.max(np.concatenate(gaps)))
    return CheckResult("roundtrip", worst <= 1e-12, f"worst scaled gap {worst:.3e}")


def check_linf_bound(rng: np.random.Generator) -> CheckResult:
    """max|c(k)| <= max sample <= Wiener norm, 1e-10 slack, 1000 fields.

    The lower bound holds because the samples determine the coefficients:
    c(k) is their discrete Fourier sum, weighted 1/P^d.  Each grid's stack
    takes one inverse transform and one norm pass."""
    excess, shortfall = [], []
    for grid, coeffs in _ensemble(rng, 1000):
        axes = tuple(range(-grid.dim, 0))
        samples = spectral._phys_from_coeffs(grid, coeffs[..., grid.modes_per_axis :])
        linf = np.max(np.abs(samples), axis=axes)
        excess.append(linf - spectral._coeff_norms(grid, coeffs, (0.0,))[0][:, 0])
        floor = np.max(np.abs(coeffs), axis=axes)
        shortfall.append((floor - linf) / floor)
    worst = float(np.max(np.concatenate(excess)))
    short = float(np.max(np.concatenate(shortfall)))
    detail = f"worst excess {worst:.3e}"
    if not short <= 1e-10:
        detail += f", samples below max|c(k)| by {short:.3e} relative"
    return CheckResult("linf_bound", worst <= 1e-10 and short <= 1e-10, detail)


def check_interpolation(rng: np.random.Generator) -> CheckResult:
    """|f|_s <= |f|_0^{1-s/r} |f|_r^{s/r} over 1000 fields x all 0<=s<=r<=4,
    the Wiener norms of each grid's stack evaluated in one pass for all 15
    pairs."""
    pairs = [(float(s), float(r)) for r in range(5) for s in range(r + 1)]
    failures = 0
    total = 0
    for grid, coeffs in _ensemble(rng, 1000):
        for column in theory.interpolation_columns(grid, coeffs, pairs):
            total += len(column.passed)
            failures += column.passed.count(False)
    return CheckResult(
        "interpolation", failures == 0, f"{total - failures}/{total} instances hold"
    )


def check_series_identities(rng: np.random.Generator) -> CheckResult:
    """Resummation identities at w = 0.5, N = 60: residual below 1e-10."""
    residuals = theory.series_identity_check(0.5, 60)
    worst = max(residuals.values())
    return CheckResult(
        "series_identities",
        worst <= 1e-10,
        "residuals " + ", ".join(f"{m}:{r:.2e}" for m, r in sorted(residuals.items())),
    )


def check_binomial_identities(rng: np.random.Generator) -> CheckResult:
    """C(n,m) C(m,k) = C(n,k) C(n-k,m-k), exhaustive for n <= 20."""
    bad = 0
    total = 0
    for n in range(21):
        for m in range(n + 1):
            for k in range(m + 1):
                total += 1
                lhs = models.binomial_coeff(n, m) * models.binomial_coeff(m, k)
                rhs = models.binomial_coeff(n, k) * models.binomial_coeff(n - k, m - k)
                if lhs != rhs:
                    bad += 1
    spot_ok = models.binomial_coeff(4, 2) == 6 and models.binomial_coeff(2 + 2, 2) == 6
    return CheckResult(
        "binomial_identities",
        bad == 0 and spot_ok,
        f"{total} subset-of-subset instances, {bad} failures",
    )


def _phi_oracle(z: float, m: int) -> float:
    """Independent phi evaluation: compensated Taylor sum near 0, else expm1."""
    if m == 0:
        return math.exp(z)
    if abs(z) <= 4.0:
        return math.fsum(z**n / math.factorial(n + m) for n in range(60))
    em = math.expm1(z)
    if m == 1:
        return em / z
    if m == 2:
        return (em - z) / z**2
    return (em - z - 0.5 * z * z) / z**3


def check_phi_functions(rng: np.random.Generator) -> CheckResult:
    """phi_0..phi_3 within 1e-12 relative of the oracle, values in [0, 1]."""
    zs = np.concatenate([[0.0], -np.logspace(-10, 6, 120)])
    vals = stepper.phi_functions(zs)
    worst = 0.0
    bounds_ok = True
    for m in range(4):
        for z, got in zip(zs, vals[m]):
            ref = _phi_oracle(float(z), m)
            if not (0.0 <= got <= 1.0 + 1e-15):
                bounds_ok = False
            if ref != 0.0:
                worst = max(worst, abs(got - ref) / abs(ref))
    return CheckResult(
        "phi_functions",
        worst <= 1e-12 and bounds_ok,
        f"worst relative error {worst:.3e}, bounds {'ok' if bounds_ok else 'violated'}",
    )


def check_linear_flow(rng: np.random.Generator) -> CheckResult:
    """With the series truncated at order 1, whose remainder is exactly
    zero, steps reproduce exp(-c|k|^4 t)."""
    worst = 0.0
    for kind, scheme in (("exp", "etdrk4"), ("adl", "etd1")):
        grid = spectral.GridSpec.create(1, 8)
        cfg = models.ModelConfig(kind, grid, models.TRUNCATED, 1)
        v0 = spectral.with_zero_mean(random_field(grid, rng, scale=0.01))
        scfg = stepper.StepperConfig(
            dt=0.01, scheme=scheme, t_end=0.2, allow_large_dt=True
        )
        final = stepper.integrate(cfg, scfg, v0)
        k = grid.wavenumbers.astype(float)
        expected = v0.coeffs * np.exp(-cfg.linear_coefficient * k**4 * scfg.t_end)
        mask = np.abs(expected) > 1e-280
        gap = np.abs(final.v.coeffs[mask] - expected[mask]) / np.abs(expected[mask])
        worst = max(worst, float(np.max(gap)))
    return CheckResult("linear_flow", worst <= 1e-13, f"worst relative drift {worst:.3e}")


def check_delta_coefficient_audit(rng: np.random.Generator) -> CheckResult:
    """Term-by-term margin audit matches 2 - delta_exp to 1e-12."""
    audit = theory.delta_exp_coefficient_audit(n=40, xs=(0.05, 0.1, 0.2), tol=1e-12)
    return CheckResult(
        "delta_coefficient_audit", audit.passed, f"max error {audit.max_error:.3e}"
    )


ALL_CHECKS = (
    check_parseval,
    check_roundtrip,
    check_linf_bound,
    check_interpolation,
    check_series_identities,
    check_binomial_identities,
    check_phi_functions,
    check_linear_flow,
    check_delta_coefficient_audit,
)


def run_checks(name_filter: str | None = None, seed: int = DEFAULT_SEED):
    """Run all (or name-matching) checks and return their results.

    The filter is a case-insensitive substring match on check names.
    """
    results = []
    for fn in ALL_CHECKS:
        name = fn.__name__.removeprefix("check_")
        if name_filter and name_filter.lower() not in name.lower():
            continue
        rng = np.random.default_rng(seed)
        results.append(fn(rng))
    return results

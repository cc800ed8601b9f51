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
small 1D/2D ensemble for every chunk of up to 40 fields per grid, each
stack's scales and coefficients in one draw each.  Each check takes a
stack through stacked kernels, whose row b is field b's own result bit
for bit: parseval one inverse transform and one quadrature, roundtrip one
inverse and one forward transform and one mirror, linf_bound one inverse
transform and one norm pass, interpolation one norm pass.

Every check starts from a generator seeded alike, so parseval and
roundtrip (200 fields) take the first chunk of the very ensemble that
linf_bound and interpolation (1000 fields) take whole.  Within one
run_checks call each stack is drawn once: `_ensemble` keeps it, read-only,
under the generator's state before its draw, and a later draw from that
state takes the kept stack and moves the generator on as the draw would
have.  A run thus draws 25 stacks, not 60, and holds the whole ensemble,
about 0.9 MB, until it returns; a check called on its own draws its own.
"""

from __future__ import annotations

import math
import pickle
from contextvars import ContextVar
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
    return 0.5 * (raw + np.conj(np.flip(raw, axis=grid.axes)))


def random_field(grid: spectral.GridSpec, rng: np.random.Generator, scale: float = 1.0):
    """Random band-limited real field with coefficients of the given scale,
    averaged with their conjugate mirror so they are exactly Hermitian.

    The real parts are drawn first, then the imaginary parts; the one-field
    case of `_hermitian_stack`."""
    draws = rng.standard_normal((1, 2) + grid.coeff_shape)
    return spectral.SpectralField(grid, _hermitian_stack(grid, draws, np.array([scale]))[0])


def _draw_stack(rng: np.random.Generator, grid: spectral.GridSpec, size: int) -> np.ndarray:
    """`size` fields on one grid, scales 10^U(-3, 1): one draw of the
    scales, one of the coefficients' real and imaginary parts."""
    scales = 10.0 ** rng.uniform(-3, 1, size)
    draws = rng.standard_normal((size, 2) + grid.coeff_shape)
    return _hermitian_stack(grid, draws, scales)


# Fields per grid in one chunk of `_ensemble`: the largest grid's stack and
# its samples then stay near 100 and 200 KB, the transforms' temporaries
# with them.  A run_checks call holds every stack it draws (the whole
# 1000-field ensemble, about 0.9 MB), not one chunk at a time.
_ENSEMBLE_ROWS = 40

# The stacks drawn in the current run_checks call, keyed by (generator
# state before the draw, grid, size) and each stored with the state after
# it; None outside run_checks.
_DRAWN: ContextVar[dict | None] = ContextVar("_DRAWN", default=None)


def _ensemble(rng: np.random.Generator, count: int):
    """`count` random fields cycling over a few 1D and 2D grids, yielded as
    (grid, coefficient stack) pairs, one per grid for each chunk of at most
    _ENSEMBLE_ROWS fields per grid.

    Field i lies on grid i % 5 and has scale 10^U(-3, 1).  Each stack takes
    one draw of its scales and one of its coefficients, real and imaginary
    parts, and is made Hermitian in one operation.

    Inside run_checks a stack is drawn once: it is kept, read-only, under
    the generator's full state before its draw, its grid and its size.  A
    later draw from that state yields the kept stack and sets the generator
    to the state the draw left, so it gives the bits a fresh draw would,
    and so does every draw after it.  Outside run_checks every stack is
    drawn afresh and is writable.
    """
    drawn = _DRAWN.get()
    grids = [
        spectral.GridSpec.create(1, 4),
        spectral.GridSpec.create(1, 9),
        spectral.GridSpec.create(1, 16),
        spectral.GridSpec.create(2, 3),
        spectral.GridSpec.create(2, 6),
    ]
    n = len(grids)
    for start in range(0, count, n * _ENSEMBLE_ROWS):
        stop = min(count, start + n * _ENSEMBLE_ROWS)
        for g, grid in enumerate(grids):
            size = len(range(start + g, stop, n))
            if drawn is None:
                yield grid, _draw_stack(rng, grid, size)
                continue
            key = (pickle.dumps(rng.bit_generator.state), grid, size)
            if key not in drawn:
                stack = _draw_stack(rng, grid, size)
                stack.flags.writeable = False
                drawn[key] = stack, rng.bit_generator.state
            stack, rng.bit_generator.state = drawn[key]
            yield grid, stack


def check_parseval(rng: np.random.Generator) -> CheckResult:
    """Grid-quadrature L2 norm vs (2 pi)^{d/2} x coefficient norm, 1e-10 rel.

    Each grid's stack takes one inverse transform and one quadrature."""
    gaps = []
    for grid, coeffs in _ensemble(rng, 200):
        samples = spectral._phys_from_coeffs(grid, coeffs[..., grid.modes_per_axis :])
        lhs = spectral.l2_quadrature(grid, samples)
        squares = np.sum(np.abs(coeffs) ** 2, axis=grid.axes)
        rhs = np.sqrt(spectral.TWO_PI**grid.dim * squares)
        gaps.append(np.abs(lhs - rhs) / np.maximum(rhs, 1e-300))
    worst = float(np.max(np.concatenate(gaps)))
    return CheckResult("parseval", worst <= 1e-10, f"worst relative gap {worst:.3e}")


def check_roundtrip(rng: np.random.Generator) -> CheckResult:
    """to_physical then from_physical reproduces coefficients to 1e-12.

    Each grid's stack takes one inverse and one forward transform and one
    mirror, the steps of that pair of public functions."""
    gaps = []
    for grid, coeffs in _ensemble(rng, 200):
        samples = spectral._phys_from_coeffs(grid, coeffs[..., grid.modes_per_axis :])
        back = spectral._mirror(grid, spectral._coeffs_from_phys(grid, samples))
        scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=grid.axes))
        gaps.append(np.max(np.abs(back - coeffs), axis=grid.axes) / scale)
    worst = float(np.max(np.concatenate(gaps)))
    return CheckResult("roundtrip", worst <= 1e-12, f"worst scaled gap {worst:.3e}")


def check_linf_bound(rng: np.random.Generator) -> CheckResult:
    """max|c(k)| <= max sample <= Wiener norm, 1e-10 slack, 1000 fields.

    The lower bound holds because the samples determine the coefficients:
    c(k) is their discrete Fourier sum, weighted 1/P^d.  Each grid's stack
    takes one inverse transform and one norm pass."""
    excess, shortfall = [], []
    for grid, coeffs in _ensemble(rng, 1000):
        samples = spectral._phys_from_coeffs(grid, coeffs[..., grid.modes_per_axis :])
        linf = spectral.extremes(grid, samples)[2]
        excess.append(linf - spectral._coeff_norms(grid, coeffs, (0.0,))[0][:, 0])
        floor = np.max(np.abs(coeffs), axis=grid.axes)
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
                lhs = math.comb(n, m) * math.comb(m, k)
                rhs = math.comb(n, k) * math.comb(n - k, m - k)
                if lhs != rhs:
                    bad += 1
    spot_ok = math.comb(4, 2) == 6 and math.comb(2 + 2, 2) == 6
    return CheckResult(
        "binomial_identities",
        bad == 0 and spot_ok,
        f"{total} subset-of-subset instances, {bad} failures",
    )


# k! as a float for k <= 62, every factorial the phi oracle divides by.
_ORACLE_FACTORIALS = tuple(float(math.factorial(k)) for k in range(63))


def _phi_oracle(z: float, m: int, powers: list[float] | None = None) -> float:
    """Independent phi evaluation: compensated Taylor sum near 0, else expm1.

    `powers`, if given, is [z**n for n in range(60)], for a caller that
    evaluates several m at one z."""
    if m == 0:
        return math.exp(z)
    if abs(z) <= 4.0:
        if powers is None:
            powers = [z**n for n in range(60)]
        return math.fsum(p / _ORACLE_FACTORIALS[n + m] for n, p in enumerate(powers))
    em = math.expm1(z)
    if m == 1:
        return em / z
    if m == 2:
        return (em - z) / z**2
    return (em - z - 0.5 * z * z) / z**3


def check_phi_functions(rng: np.random.Generator) -> CheckResult:
    """phi_0..phi_3 within 1e-12 relative of the oracle, values in [0, 1]."""
    zs = np.concatenate([[0.0], -np.logspace(-10, 6, 120)])
    vals = np.array(stepper.phi_functions(zs)).T.tolist()
    worst = 0.0
    bounds_ok = True
    for z, row in zip(zs.tolist(), vals):
        powers = [z**n for n in range(60)] if abs(z) <= 4.0 else None
        for m, got in enumerate(row):
            ref = _phi_oracle(z, m, powers)
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
    audit = theory.delta_exp_coefficient_audit()
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

    The filter is a case-insensitive substring match on check names.  Each
    check gets a generator of its own seeded with `seed`; the ensemble
    stacks drawn in this call are shared between the checks (see
    `_ensemble`) and dropped when it returns or raises.
    """
    results = []
    token = _DRAWN.set({})
    try:
        for fn in ALL_CHECKS:
            name = fn.__name__.removeprefix("check_")
            if name_filter and name_filter.lower() not in name.lower():
                continue
            rng = np.random.default_rng(seed)
            results.append(fn(rng))
    finally:
        _DRAWN.reset(token)
    return results

"""Named property checks behind the `validate` CLI command.

Each check is a function returning a CheckResult; run_checks executes a
filtered subset in declaration order with a deterministic RNG seed, so the
suite is reproducible run to run.  These are the machine-checkable stand-ins
for the analytical facts the solver relies on: exact transform inverses,
Parseval, the max-norm bound by the Wiener norm, the interpolation
inequality, the resummation identities, binomial coefficient algebra, phi
function accuracy, the exactness of the linear subflow, and the
coefficient-level audit of the exponential margin.
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


def random_field(grid: spectral.GridSpec, rng: np.random.Generator, scale: float = 1.0):
    """Random band-limited real field with coefficients of the given scale,
    averaged with their conjugate mirror so they are exactly Hermitian."""
    shape = grid.coeff_shape
    raw = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    return spectral.SpectralField(grid, 0.5 * (raw + np.conj(np.flip(raw))))


def _ensemble(rng: np.random.Generator, count: int):
    """Mixed 1D/2D random fields cycling over a few grid sizes."""
    grids = [
        spectral.GridSpec.create(1, 4),
        spectral.GridSpec.create(1, 9),
        spectral.GridSpec.create(1, 16),
        spectral.GridSpec.create(2, 3),
        spectral.GridSpec.create(2, 6),
    ]
    for i in range(count):
        yield random_field(grids[i % len(grids)], rng, scale=10.0 ** rng.uniform(-3, 1))


def check_parseval(rng: np.random.Generator) -> CheckResult:
    """Grid-quadrature L2 norm vs (2 pi)^{d/2} x coefficient norm, 1e-10 rel."""
    worst = 0.0
    for f in _ensemble(rng, 200):
        lhs = spectral.l2_norm(f)
        rhs = math.sqrt(
            spectral.TWO_PI ** f.grid.dim * float(np.sum(np.abs(f.coeffs) ** 2))
        )
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    return CheckResult("parseval", worst <= 1e-10, f"worst relative gap {worst:.3e}")


def check_roundtrip(rng: np.random.Generator) -> CheckResult:
    """to_physical then from_physical reproduces coefficients to 1e-12."""
    worst = 0.0
    for f in _ensemble(rng, 200):
        back = spectral.from_physical(spectral.to_physical(f), f.grid)
        scale = max(1.0, float(np.max(np.abs(f.coeffs))))
        worst = max(worst, float(np.max(np.abs(back.coeffs - f.coeffs))) / scale)
    return CheckResult("roundtrip", worst <= 1e-12, f"worst scaled gap {worst:.3e}")


def check_linf_bound(rng: np.random.Generator) -> CheckResult:
    """Max sample bounded by the Wiener norm plus 1e-10, 1000 fields."""
    worst = -math.inf
    for f in _ensemble(rng, 1000):
        gap = spectral.linf_norm(f) - spectral.wiener_norm(f, 0.0)
        worst = max(worst, gap)
    return CheckResult("linf_bound", worst <= 1e-10, f"worst excess {worst:.3e}")


def check_interpolation(rng: np.random.Generator) -> CheckResult:
    """|f|_s <= |f|_0^{1-s/r} |f|_r^{s/r} over 1000 fields x all 0<=s<=r<=4,
    each field's Wiener norms evaluated once for all 15 pairs."""
    pairs = [(float(s), float(r)) for r in range(5) for s in range(r + 1)]
    failures = 0
    total = 0
    for f in _ensemble(rng, 1000):
        checks = theory.interpolation_checks(f, pairs)
        total += len(checks)
        failures += sum(not c.passed for c in checks)
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

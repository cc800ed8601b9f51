"""The paper's two equations, as printed, as an independent oracle.

The abstract (PAPER.md) prints, on the torus [-pi, pi)^d,

    d_t u = Lap exp(-Lap u)          (exp)
    d_t u = -u^2 Lap^2(u^3)          (adl)

The solver marches a slope variable v instead, whose equations follow by
substitution: v = Lap u gives d_t v = Lap^2 exp(-v), and v = 1/u - 1 gives
d_t v = -u^-2 d_t u = Lap^2(u^3) = Lap^2((1 + v)^-3).  No code states
either substitution, so this module checks both: `_oracle` integrates the
printed equations in u by the method of lines, with numpy's FFT for every
derivative and scipy's Radau in time, maps u(T) to v(T), and its Fourier
coefficients must equal those of `integrate` within a tolerance derived
per case.  The oracle builds its initial data from the printed sines and
uses nothing from crystalsurf; only the run under test does.

The tolerance is the sum of three estimates, each made independently of
the comparison, times `SAFETY`:
- the run's time error, by halving dt: with p the scheme's order,
  |c_dt - c_dt/2| 2^p / (2^p - 1);
- the run's truncation to |k| <= M, by widening it: |c_M - c_M+4| on the
  modes of M, at the same dt;
- the oracle's error: Radau holds each local error to rtol |u| + atol,
  and on this dissipative flow local errors decay rather than add up, so
  the global error of a coefficient is taken as rtol |v(T)|_0.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from crystalsurf.models import ModelConfig
from crystalsurf.spectral import GridSpec, field_from_modes
from crystalsurf.stepper import StepperConfig, integrate

# Oracle nodes per axis and Radau tolerances, per dimension; the nodes
# double until they resolve every retained wavenumber (P/2 > M).
ORACLE = {1: (64, 1e-12, 1e-14), 2: (24, 1e-11, 1e-13)}

# Each estimate is first order in its own small parameter; the factor
# covers an estimate off by up to 2x in each of the three terms at once.
SAFETY = 4.0

SCHEME_ORDER = {"etd1": 1, "etdrk4": 4}

# (kind, dim, M, [(k, amplitude, phase), ...], T, scheme, dt)
CASES = {
    "exp-1d": ("exp", 1, 16, [(1, 0.05, 0.0), (2, 0.03, 0.7)], 0.05, "etdrk4", 1e-4),
    "adl-1d": ("adl", 1, 16, [(1, 0.02, 0.0), (2, 0.01, 0.7)], 0.02, "etdrk4", 1e-4),
    "exp-1d-0.3": ("exp", 1, 16, [(1, 0.3, 0.0), (3, 0.1, 1.1)], 0.02, "etdrk4", 1e-4),
    "adl-2d": ("adl", 2, 8, [((1, 0), 0.02, 0.0), ((1, 1), 0.01, 0.7)], 0.02, "etdrk4", 1e-4),
    "exp-2d": ("exp", 2, 8, [((2, 1), 0.05, 0.0), ((0, 1), 0.03, 0.3)], 0.01, "etdrk4", 1e-4),
    "adl-1d-etd1": ("adl", 1, 16, [(1, 0.02, 0.0), (2, 0.01, 0.7)], 0.02, "etd1", 1e-4),
    # P = 194 > 192: the rfft/irfft path, not the fused dense step.
    "exp-1d-rfft": ("exp", 1, 48, [(1, 0.05, 0.0), (2, 0.03, 0.7)], 0.02, "etdrk4", 1e-4),
}


def _oracle(kind, dim, m, modes, t_end):
    """Coefficients of v(t_end) at the wavenumbers -m..m of each axis, from
    the printed equation in u on P^dim nodes x_j = -pi + 2 pi j / P."""
    p, rtol, atol = ORACLE[dim]
    while p // 2 <= m:
        p *= 2
    x = -np.pi + 2.0 * np.pi * np.arange(p) / p
    xs = np.meshgrid(*[x] * dim, indexing="ij")
    v0 = sum(
        a * np.sin(sum(ki * xi for ki, xi in zip(np.atleast_1d(k), xs)) + phase)
        for k, a, phase in modes
    )
    ks = np.meshgrid(*[np.fft.fftfreq(p, 1.0 / p)] * dim, indexing="ij")
    k2 = sum(ki**2 for ki in ks)
    shape = (p,) * dim

    def lap(f):
        return np.fft.ifftn(-k2 * np.fft.fftn(f)).real

    if kind == "exp":  # u = Lap^-1 v, with zero mean
        v_hat = np.fft.fftn(v0)
        u0 = np.fft.ifftn(np.divide(-v_hat, k2, out=np.zeros_like(v_hat), where=k2 > 0)).real

        def rhs(t, u):
            return lap(np.exp(-lap(u.reshape(shape)))).ravel()

        to_v = lap
    else:  # u = 1 / (1 + v)

        def rhs(t, u):
            u = u.reshape(shape)
            return (-(u**2) * lap(lap(u**3))).ravel()

        u0 = 1.0 / (1.0 + v0)

        def to_v(u):
            return 1.0 / u - 1.0

    sol = solve_ivp(rhs, (0.0, t_end), u0.ravel(), method="Radau", rtol=rtol, atol=atol)
    assert sol.success, sol.message
    v_hat = np.fft.fftn(to_v(sol.y[:, -1].reshape(shape))) / p**dim
    # Nodes from -pi: the FFT of samples at x_j reads (-1)^k times the
    # coefficient of exp(i k x).
    k = np.arange(-m, m + 1)
    return (v_hat * (-1.0) ** sum(ks))[np.ix_(*[k % p] * dim)]


def _run(kind, dim, m, modes, t_end, scheme, dt):
    grid = GridSpec.create(dim, m)
    scfg = StepperConfig(dt=dt, scheme=scheme, t_end=t_end)
    return integrate(ModelConfig(kind, grid), scfg, field_from_modes(grid, modes)).v.coeffs


def _on_modes(coeffs, m):
    """The |k|_inf <= m block of a (2M'+1)^d coefficient array, M' >= m."""
    cut = (coeffs.shape[0] - 1) // 2 - m
    return coeffs[(slice(cut, cut + 2 * m + 1),) * coeffs.ndim]


@pytest.mark.parametrize("case", CASES)
def test_integrate_solves_the_printed_equation(case):
    kind, dim, m, modes, t_end, scheme, dt = CASES[case]
    rtol = ORACLE[dim][1]
    got = _run(kind, dim, m, modes, t_end, scheme, dt)
    halved = _run(kind, dim, m, modes, t_end, scheme, dt / 2)
    wider = _on_modes(_run(kind, dim, m + 4, modes, t_end, scheme, dt), m)
    want = _oracle(kind, dim, m, modes, t_end)

    order = SCHEME_ORDER[scheme]
    time_error = np.max(np.abs(got - halved)) * 2**order / (2**order - 1)
    truncation_error = np.max(np.abs(got - wider))
    oracle_error = rtol * np.sum(np.abs(want))
    tol = SAFETY * (time_error + truncation_error + oracle_error)
    moved = np.max(np.abs(got - field_from_modes(GridSpec.create(dim, m), modes).coeffs))
    assert moved > 1e3 * tol, (moved, tol)  # the comparison is not of the data
    assert np.max(np.abs(got - want)) <= tol, (
        np.max(np.abs(got - want)),
        time_error,
        truncation_error,
        oracle_error,
    )

"""Acceptance gate: end-to-end checks of the solver and its guarantees.

Each test prints one [PASS]/[FAIL] line with the measured numbers before
asserting, so running this module with -s gives a one-screen report of the
package's headline claims: threshold locations, margin values, certified
decay envelopes for both models, linearized decay rates, Lyapunov
monotonicity, truncation tails, the randomized property suite, time-stepper
convergence orders, and positive fitted Sobolev decay rates.

The two reference trajectories (a mode-3 exponential-model run and a mode-2
adl run) are integrated once per session and shared across tests.
"""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from crystalsurf.diagnostics import (
    TimeSeriesRecorder,
    certify_decay,
    check_lyapunov_monotone,
    check_positivity,
    fit_decay_rate,
    truncation_study,
)
from crystalsurf.models import ADL, EXPONENTIAL, ModelConfig
from crystalsurf.spectral import GridSpec, field_from_modes, wiener_norm
from crystalsurf.stepper import (
    SCHEME_ETD1,
    SCHEME_ETDRK4,
    StepperConfig,
    integrate,
)
from crystalsurf.theory import (
    delta,
    delta_adl,
    delta_exp,
    threshold_bracket,
    threshold_root,
)
from crystalsurf.validation import run_checks


def _verdict(name: str, passed: bool, detail: str = "") -> None:
    """Print one pass/fail line for a criterion, then assert it."""
    line = f"[{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


def _timed_run(kind: str, mode_k: int, amplitude: float):
    """Integrate one reference trajectory and record its time series."""
    grid = GridSpec.create(1, 32)
    v0 = field_from_modes(grid, [(mode_k, amplitude, 0.0)])
    recorder = TimeSeriesRecorder(kind)
    cfg = ModelConfig(kind, grid)
    scfg = StepperConfig(dt=1e-4, scheme=SCHEME_ETDRK4, t_end=5.0, sample_every=50)
    start = time.perf_counter()
    integrate(cfg, scfg, v0, observer=recorder)
    elapsed = time.perf_counter() - start
    return recorder.finalize(), elapsed


@pytest.fixture(scope="module")
def exp_run():
    """Exponential model, v0 = 0.1 sin(3x), M = 32, ETDRK4 to T = 5."""
    return _timed_run(EXPONENTIAL, 3, 0.1)


@pytest.fixture(scope="module")
def adl_run():
    """Adl model, v0 = 0.02 sin(2x), M = 32, ETDRK4 to T = 5."""
    return _timed_run(ADL, 2, 0.02)


class TestAcceptance:
    """Ten headline checks, each reported as a single printed verdict."""

    def test_a01_threshold_roots(self):
        """Both decay thresholds sit in narrow known windows, found fast."""
        start = time.perf_counter()
        root_exp = threshold_root(EXPONENTIAL)
        root_adl = threshold_root(ADL)
        lo_e, hi_e = threshold_bracket(EXPONENTIAL)
        lo_a, hi_a = threshold_bracket(ADL)
        elapsed = time.perf_counter() - start
        ok = (
            0.104 < root_exp < 0.105
            and 0.0251 < root_adl < 0.0252
            and root_exp > 0.1
            and root_adl > 0.023
            and hi_e - lo_e <= 1e-12
            and hi_a - lo_a <= 1e-12
            and elapsed < 1.0
        )
        _verdict(
            "A01 threshold roots",
            ok,
            f"exp {root_exp:.12f}, adl {root_adl:.12f}, "
            f"widths {hi_e - lo_e:.1e}/{hi_a - lo_a:.1e}, {elapsed:.3f}s",
        )

    def test_a02_margin_spot_values(self):
        """Margins are exact at zero and match frozen references elsewhere."""
        ref_exp = 5.37940132687845310e-02
        ref_adl = 3.12868792155841624e-01
        got_exp = delta_exp(0.1)
        got_adl = delta_adl(0.023)
        ok = (
            delta_exp(0.0) == 1.0
            and delta_adl(0.0) == 3.0
            and got_exp > 0.0
            and got_adl > 0.0
            and abs(got_exp - ref_exp) <= 1e-12 * ref_exp
            and abs(got_adl - ref_adl) <= 1e-12 * ref_adl
        )
        _verdict(
            "A02 margin spot values",
            ok,
            f"delta_exp(0.1) = {got_exp:.12e}, delta_adl(0.023) = {got_adl:.12e}",
        )

    def test_a03_exponential_decay_certified(self, exp_run):
        """The mode-3 exponential run stays under its decay envelope."""
        series, elapsed = exp_run
        cert = certify_decay(series, 0.1, delta_exp(0.1), slack=1e-6)
        ok = cert.verdict and elapsed < 30.0
        _verdict(
            "A03 exponential decay certified",
            ok,
            f"verdict {cert.verdict}, {len(series.times)} samples, {elapsed:.1f}s",
        )

    def test_a04_adl_decay_and_positivity(self, adl_run):
        """The mode-2 adl run decays and its surface height stays safe."""
        series, elapsed = adl_run
        cert = certify_decay(series, 0.02, delta_adl(0.02), slack=1e-6)
        min1pv = float(np.min(series.min_one_plus_v))
        max1pv = float(np.max(series.max_one_plus_v))
        ok = (
            cert.verdict
            and min1pv > 0.9
            and min1pv > 0.5
            and max1pv < 2.0
            and elapsed < 30.0
        )
        _verdict(
            "A04 adl decay and positivity",
            ok,
            f"verdict {cert.verdict}, min(1+v) = {min1pv:.4f}, "
            f"max(1+v) = {max1pv:.4f}, {elapsed:.1f}s",
        )

    @pytest.mark.parametrize("kind, want", [(EXPONENTIAL, 1.0), (ADL, 3.0)])
    def test_a05_linearized_decay_rates(self, kind, want):
        """A tiny mode-1 field decays at the linearized rate c |k|^4."""
        grid = GridSpec.create(1, 32)
        v0 = field_from_modes(grid, [(1, 1e-4, 0.0)])
        recorder = TimeSeriesRecorder(kind)
        scfg = StepperConfig(dt=1e-3, scheme=SCHEME_ETDRK4, t_end=1.0, sample_every=10)
        start = time.perf_counter()
        integrate(ModelConfig(kind, grid), scfg, v0, observer=recorder)
        elapsed = time.perf_counter() - start
        series = recorder.finalize()
        rate = fit_decay_rate(series.times, series.wiener[0.0])
        ok = abs(rate - want) <= 0.01 * want and elapsed < 10.0
        _verdict(
            f"A05 linearized rate ({kind})",
            ok,
            f"fitted {rate:.6f}, want {want:.1f} within 1%, {elapsed:.1f}s",
        )

    def test_a06_lyapunov_monotone(self, exp_run, adl_run):
        """The model's Lyapunov functional never increases along either run."""
        ok_exp = check_lyapunov_monotone(exp_run[0])
        ok_adl = check_lyapunov_monotone(adl_run[0])
        _verdict(
            "A06 lyapunov monotone",
            ok_exp and ok_adl,
            f"exp {ok_exp}, adl {ok_adl} (relative slack 1e-10)",
        )

    def test_a07_truncation_tails(self):
        """Truncating the nonlinearity converges at the predicted speed."""
        grid = GridSpec(1, 2, 32, padding_factor=1.0)
        v = field_from_modes(grid, [(1, 0.5, 0.0)])
        exp_result = truncation_study(EXPONENTIAL, v, (2, 6, 12, 20))
        exp_err = exp_result.errors[-1]
        adl_result = truncation_study(ADL, v, tuple(range(2, 53, 2)))
        ratio = adl_result.mean_tail_ratio(10)
        ok = exp_err < 1e-14 and 0.45 <= ratio <= 0.55
        _verdict(
            "A07 truncation tails",
            ok,
            f"exp error at order 20 = {exp_err:.2e}, "
            f"adl per-order tail ratio = {ratio:.4f} (want 0.5 +/- 0.05)",
        )

    def test_a08_property_suite(self):
        """Every randomized self-check passes within its time budget."""
        start = time.perf_counter()
        results = run_checks()
        elapsed = time.perf_counter() - start
        failed = [r.name for r in results if not r.passed]
        ok = not failed and elapsed < 60.0
        _verdict(
            "A08 property suite",
            ok,
            f"{len(results)} checks, failed {failed or 'none'}, {elapsed:.1f}s",
        )

    def test_a09_convergence_orders(self):
        """ETDRK4 converges at fourth order and ETD1 at first order."""
        grid = GridSpec.create(1, 32)
        v0 = field_from_modes(grid, [(3, 0.1, 0.0)])
        cfg = ModelConfig(EXPONENTIAL, grid)
        t_end = 0.05

        def final(scheme, dt):
            scfg = StepperConfig(dt=dt, scheme=scheme, t_end=t_end)
            return integrate(cfg, scfg, v0).v.coeffs

        def orders(scheme, dts, ref_dt):
            ref = final(SCHEME_ETDRK4, ref_dt)
            errs = [
                float(np.max(np.abs(final(scheme, dt) - ref))) for dt in dts
            ]
            return [math.log2(a / b) for a, b in zip(errs, errs[1:])]

        orders4 = orders(SCHEME_ETDRK4, [2.5e-4, 1.25e-4, 6.25e-5], 1.5625e-5)
        orders1 = orders(SCHEME_ETD1, [4e-4, 2e-4, 1e-4], 2.5e-5)
        ok = all(3.7 <= p <= 4.3 for p in orders4) and all(
            0.7 <= p <= 1.3 for p in orders1
        )
        _verdict(
            "A09 convergence orders",
            ok,
            "etdrk4 " + "/".join(f"{p:.2f}" for p in orders4)
            + " (want 4 +/- 0.3), etd1 "
            + "/".join(f"{p:.2f}" for p in orders1)
            + " (want 1 +/- 0.3)",
        )

    def test_a10_sobolev_decay_rates(self, exp_run):
        """Fitted H^r decay rates are positive for r in {0, 1, 1.9}.

        The run decays so fast that its norms underflow the fit floor well
        before T = 5, so each rate is fitted over the resolvable prefix of
        the series, where |v(t)|_0 still exceeds 1e-12.
        """
        series, _ = exp_run
        keep = series.wiener[0.0] > 1e-12
        rates = {}
        for order in (0.0, 1.0, 1.9):
            rates[order] = fit_decay_rate(
                series.times[keep], series.sobolev[order][keep]
            )
        ok = all(math.isfinite(r) and r > 0.0 for r in rates.values())
        _verdict(
            "A10 sobolev decay rates",
            ok,
            ", ".join(f"H^{o:g} rate {r:.1f}" for o, r in sorted(rates.items())),
        )


def test_readme_library_example_runs_as_printed(capsys):
    """README's "Library use" block, run word for word, certifies the decay
    and prints a fitted rate within 1% of 81 = 3^4, mode 3's linear rate."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    verdict, rate = capsys.readouterr().out.split()
    assert verdict == "True"
    assert float(rate) == pytest.approx(81.0, rel=0.01)

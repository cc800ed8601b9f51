"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest perfbench/tests -q [--basetemp DIR]

The traced runs and the broken-tree runs start real benchmark processes;
the whole module takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workload  # noqa: E402
from instrument import LAYER_SPANS, Instrument  # noqa: E402

from crystalsurf import cli, diagnostics, stepper, validation  # noqa: E402
from crystalsurf.diagnostics import TimeSeries  # noqa: E402

EXACT = (
    "spectral.fft_points",
    "spectral.useful_bins_ratio",
    "models.remainder.per_step",
    "stepper.subnormal_frac",
    "cli.report_io.bytes",
    "spectral.inverse.calls",
    "stepper.advance.calls",
    "config.parse.calls",
)


def bench(*args, cwd=ROOT, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", *args, "--seconds", str(seconds)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs with the same seed per workload (ref1d is left out:
    one traced round of it takes over a minute)."""
    pairs = {}
    for name in ("surface2d", "sweep16", "audit"):
        runs = [bench("--workload", name, "--seed", "7", "--trace", "1") for _ in range(2)]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
        pairs[name] = [result_of(p)["metrics"] for p in runs]
    return pairs


@pytest.mark.parametrize("name", ["surface2d", "sweep16", "audit"])
def test_exact_counters_repeat(traced_pairs, name):
    first, second = traced_pairs[name]
    for metric in EXACT:
        assert first[metric]["value"] == second[metric]["value"], metric


@pytest.mark.parametrize("name", ["surface2d", "sweep16", "audit"])
def test_layer_self_times_add_up_to_traced_wall(traced_pairs, name):
    m = {k: v["value"] for k, v in traced_pairs[name][0].items()}
    layers = sum(m[f"{span}.self_s"] for span in LAYER_SPANS)
    assert m["trace.untraced_s"] >= 0
    assert math.isclose(layers + m["trace.untraced_s"], m["trace.wall_s"], rel_tol=1e-9)


def test_counters_match_the_workload_shape(traced_pairs):
    surface = {k: v["value"] for k, v in traced_pairs["surface2d"][0].items()}
    assert surface["stepper.advance.calls"] == 500
    assert surface["models.remainder.per_step"] == 4
    assert surface["spectral.useful_bins_ratio"] == (65 / 130) ** 2
    sweep = {k: v["value"] for k, v in traced_pairs["sweep16"][0].items()}
    assert sweep["stepper.advance.calls"] == 16 * 1000
    assert sweep["config.parse.calls"] == 17  # the sweep file plus one per member


def test_every_wrapper_is_removed(tmp_path):
    fft_before = dict(vars(np.fft))
    with Instrument(True, tmp_path) as inst:
        patched = list(inst._saved)
        stepper_cfg = {"scheme": "etdrk4", "dt": 1e-3, "t_end": 0.01}
        workload.trajectory(workload.run_config("adl", 1, 2, 0.02, 0.0, stepper_cfg))
        assert cli.integrate is not stepper.integrate
    assert len(patched) > 50
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
    assert dict(vars(np.fft)) == fft_before
    assert cli.integrate is stepper.integrate
    assert validation.ALL_CHECKS[0].__module__ == "crystalsurf.validation"
    assert diagnostics.TimeSeriesRecorder.__call__.__module__ == "crystalsurf.diagnostics"
    assert not inst.active
    assert sum(inst.calls) > 0


def test_calibration_brackets_every_gap(tmp_path, monkeypatch):
    monkeypatch.setattr("instrument.CAL_INTERVAL_S", 0.0)  # a burst at every observer call
    with Instrument(False, tmp_path) as inst:
        stepper_cfg = {"scheme": "etdrk4", "dt": 1e-3, "t_end": 0.01}
        inst.calibrate()
        workload.trajectory(workload.run_config("adl", 1, 2, 0.02, 0.0, stepper_cfg))
    assert len(inst.gaps) == 10 and len(inst.cal) == 12
    # the bursts around gap k are the ones of observer calls k and k + 1
    assert list(inst.gap_cal) == list(range(2, 12))


def _series(w0, kind="adl"):
    n = len(w0)
    ones = np.ones(n)
    return TimeSeries(
        kind=kind,
        times=np.linspace(0.0, 1.0, n),
        wiener={0.0: np.asarray(w0, dtype=float)},
        sobolev={0.0: np.asarray(w0, dtype=float)},
        l2=ones,
        linf=ones,
        lyapunov=np.linspace(2.0, 1.0, n),
        min_one_plus_v=ones,
        max_one_plus_v=ones,
    )


def test_trajectory_check_rejects_nan_and_drift():
    w0 = 0.02 * np.exp(-3.0 * np.linspace(0.0, 1.0, 11))
    pinned = {"samples": 11, "wiener_0": list(w0)}

    def problems(values):
        report = SimpleNamespace(series=_series(values))
        return workload.check_trajectory(report, "adl", 0.02, pinned)

    assert problems(w0) == []
    assert "non-finite state" in problems(np.where(np.arange(11) == 5, np.nan, w0))
    assert any("pinned" in p for p in problems(w0 * (1 + 1e-6)))


def _fake_sweep(out: Path, wrong_verdict_at=None):
    out.mkdir()
    lines = ["x0,delta,fitted_rate,verdict"]
    for amp in workload.SWEEP_AMPLITUDES:
        verdict = amp <= 0.10
        if amp == wrong_verdict_at:
            verdict = not verdict
        lines.append(f"{amp!r},0.5,81.0,{str(verdict).lower()}")
        member = out / f"amplitude_{amp:g}"
        member.mkdir()
        rows = [[0.0] * 17] * workload.SWEEP_ROWS
        (member / "report.json").write_text(json.dumps({"series": {"rows": rows}}))
    (out / "sweep_aggregate.csv").write_text("\n".join(lines) + "\n")


def test_sweep_check_rejects_a_wrong_verdict(tmp_path):
    _fake_sweep(tmp_path / "good")
    assert not any(workload.check_sweep(0, tmp_path / "good"))
    _fake_sweep(tmp_path / "bad", wrong_verdict_at=0.05)
    problems = workload.check_sweep(0, tmp_path / "bad")
    assert sum(1 for p in problems if p) == 1
    assert all(workload.check_sweep(1, tmp_path / "good"))


def _tree(tmp_path, with_src=True):
    tree = tmp_path / "tree"
    tree.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    shutil.copytree(BENCH, tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_src:
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def _mutate(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


def test_benchmark_alone_fails_without_result(tmp_path):
    proc = bench("--workload", "audit", cwd=_tree(tmp_path, with_src=False))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_nan_state_fails_the_command(tmp_path):
    tree = _tree(tmp_path)
    _mutate(
        tree / "src/crystalsurf/models.py",
        "return np.expm1(-3.0 * np.log1p(v_phys)) + 3.0 * v_phys",
        "return np.expm1(-3.0 * np.log1p(v_phys)) + 3.0 * v_phys * np.nan",
    )
    proc = bench("--workload", "surface2d", cwd=tree)
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "non-finite state" in proc.stdout


def test_wrong_verdict_fails_the_command(tmp_path):
    tree = _tree(tmp_path)
    _mutate(
        tree / "src/crystalsurf/cli.py",
        '"verdict": run_verdict(report),',
        '"verdict": not run_verdict(report),',
    )
    proc = bench("--workload", "sweep16", cwd=tree)
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "verdict" in proc.stdout

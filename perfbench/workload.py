"""One benchmark workload, run in-process by a single child of run.py.

Usage (normally started by run.py, which also measures set-up time):

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE [--setup-only]

The child runs rounds of the workload back to back (closed loop) until
--seconds have passed, at least one round, checks every round's outputs
after its timed window, and writes its measurements as JSON to --result.
With --trace 1 an untraced phase and a traced phase of --seconds/2 each
are run, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from crystalsurf import cli, diagnostics, validation  # noqa: E402
from crystalsurf.diagnostics import certify_decay, check_lyapunov_monotone  # noqa: E402
from crystalsurf.spectral import GridSpec, field_from_modes  # noqa: E402
from crystalsurf.theory import delta  # noqa: E402

from instrument import LAYER_SPANS, Instrument, SetupReached, clock  # noqa: E402

WORKLOADS = ("ref1d", "surface2d", "sweep16", "audit")

# The A03/A04 reference pair: (model, wavenumber, amplitude), 1D M=32,
# ETDRK4, dt=1e-4, T=5, every 50th step observed.
REF1D = (("exp", 3, 0.1), ("adl", 2, 0.02))
REF1D_STEPPER = {"scheme": "etdrk4", "dt": 1e-4, "t_end": 5.0, "sample_every": 50}
# 2D M=32 (130^2 collocation points), 500 steps.
SURFACE2D = ("adl", [2, 1], 0.02)
SURFACE2D_STEPPER = {"scheme": "etdrk4", "dt": 1e-3, "t_end": 0.5, "sample_every": 5}
# Sixteen exp members across the threshold 0.1047: ten admissible, six not.
SWEEP_AMPLITUDES = tuple(round(0.01 * i, 2) for i in range(1, 17))
SWEEP_STEPPER = {"scheme": "etdrk4", "dt": 1e-3, "t_end": 1.0, "sample_every": 1}
SWEEP_WORKERS = 2
SWEEP_ROWS = 1001
SWEEP_RATE = 81.0  # linearized exp rate c |k|^4 for k = 3
SWEEP_VERDICT_MAX_X0 = 0.10

ENVELOPE_SLACK = 1e-6  # absolute, as in acceptance criteria A03/A04

# Pinned |v|_0 series: samples above the floor must match within PIN_RTOL.
# Below the floor the series is rounding-seeded k=1 noise and is not pinned.
# The tolerance admits reordered sums (1e-13 relative and below at these
# amplitudes; up to ~1e-9 just above the floor when the initial phase moves)
# but not a change of scheme or step: on surface2d, ETD1 moves |v|_0 by
# ~1e-3 relative and ETDRK4 at twice the step by ~5e-6.
PIN_FLOOR = 1e-12
PIN_RTOL = 1e-8
REFERENCE_FILE = HERE / "reference.json"

# Timings are reported rescaled to a machine on which one calibration burst
# (instrument.calibration_kernel) takes CAL_REF_S.  A burst of b seconds
# gives the rate CAL_REF_S / b; a round's time is multiplied by the mean rate
# of that round's bursts (those inside it and the one on each side), an
# observer gap by the mean rate of the two bursts of its process around it.
# Bursts sample time evenly, so the mean rate (not CAL_REF_S over the mean
# burst) is the one that leaves a round run half fast, half slow unbiased.
# As measured, the times are in the detail block.
CAL_REF_S = 1e-3
# Bursts run right after set-up in a set-up probe, to rescale its time.
SETUP_BURSTS = 5

# Operations per round: trajectories, sweep members or checks.
AUDIT_OPERATIONS = len(validation.ALL_CHECKS) + 4  # + 2 threshold tables + 2 A07 studies


def phases(seed: int, count: int) -> list[float]:
    """Initial-mode phases for a seed.  A phase is a translation of the
    torus, so |v(t)|_0 and the pinned series do not depend on it."""
    return [float(p) for p in 2.0 * math.pi * np.random.default_rng(seed).random(count)]


def run_config(kind: str, dim: int, k, amplitude: float, phase: float, stepper: dict) -> dict:
    return {
        "model": {"kind": kind},
        "grid": {"dim": dim, "modes": 32},
        "stepper": dict(stepper),
        "initial_data": {
            "kind": "modes",
            "modes": [{"k": k, "amplitude": amplitude, "phase": phase}],
        },
    }


def trajectory(raw: dict):
    """One `crystalsurf run` without file output, through the CLI layer."""
    cfg = cli.parse_run_config(raw)
    grid = cli.build_grid(cfg)
    return cli.execute_run(cfg, cli.build_initial_field(cfg, grid))


def trajectory_specs(workload: str, seed: int | None):
    """(label, model kind, amplitude, raw config) per trajectory of a round.

    seed None gives phase 0, the setting the pinned series were recorded at.
    """
    if workload == "ref1d":
        ph = phases(seed, len(REF1D)) if seed is not None else [0.0] * len(REF1D)
        return [
            (f"ref1d.{kind}", kind, amp, run_config(kind, 1, k, amp, p, REF1D_STEPPER))
            for (kind, k, amp), p in zip(REF1D, ph)
        ]
    kind, k, amp = SURFACE2D
    p = phases(seed, 1)[0] if seed is not None else 0.0
    return [(f"surface2d.{kind}", kind, amp, run_config(kind, 2, k, amp, p, SURFACE2D_STEPPER))]


def check_trajectory(report, kind: str, amplitude: float, pinned) -> list[str]:
    """A03/A04 criteria, finite states, Lyapunov monotone, pinned |v|_0."""
    s = report.series
    problems = []
    columns = [s.times, s.l2, s.linf, s.lyapunov, s.min_one_plus_v, s.max_one_plus_v]
    columns += list(s.wiener.values()) + list(s.sobolev.values())
    if not all(np.all(np.isfinite(c)) for c in columns):
        problems.append("non-finite state")
    if not certify_decay(s, amplitude, delta(kind, amplitude), slack=ENVELOPE_SLACK).verdict:
        problems.append("decay envelope violated")
    if kind == "adl" and not (
        np.min(s.min_one_plus_v) > 0.9 and np.max(s.max_one_plus_v) < 2.0
    ):
        problems.append("1 + v left (0.9, 2)")
    if not check_lyapunov_monotone(s):
        problems.append("Lyapunov functional increased")
    w = s.wiener[0.0]
    ref = np.asarray(pinned["wiener_0"])
    if len(w) != pinned["samples"]:
        problems.append(f"{len(w)} samples, pinned {pinned['samples']}")
    else:
        gap = float(np.max(np.abs(w[: len(ref)] - ref) / ref))
        if not gap <= PIN_RTOL:
            problems.append(f"|v|_0 off the pinned series by {gap:.3e} relative")
    return problems


def write_sweep_config(path: Path, seed: int) -> None:
    base = run_config("exp", 1, 3, 0.1, phases(seed, 1)[0], SWEEP_STEPPER)
    base["outputs"] = {"directory": str(path.parent / "sweep"), "formats": ["csv", "json", "plot"]}
    doc = {"sweep": {"amplitudes": list(SWEEP_AMPLITUDES), "workers": SWEEP_WORKERS}, "base": base}
    path.write_text(yaml.safe_dump(doc, sort_keys=False))


def check_sweep(rc: int, out: Path) -> list[list[str]]:
    """Per-member problems: exit 0, 16 aggregate rows, verdict true exactly
    for x0 <= 0.10, admissible rates within 1% of 81, every report.json
    with 1001 finite rows."""
    problems = [[] for _ in SWEEP_AMPLITUDES]
    if rc != 0:
        return [[f"sweep exit code {rc}"] for _ in SWEEP_AMPLITUDES]
    try:
        with open(out / "sweep_aggregate.csv") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        return [[f"no aggregate: {err}"] for _ in SWEEP_AMPLITUDES]
    if len(rows) != len(SWEEP_AMPLITUDES):
        return [[f"{len(rows)} aggregate rows"] for _ in SWEEP_AMPLITUDES]
    for amp, row, bad in zip(SWEEP_AMPLITUDES, rows, problems):
        x0, rate = float(row["x0"]), float(row["fitted_rate"])
        if not abs(x0 - amp) <= 1e-12:
            bad.append(f"x0 {x0!r} for amplitude {amp}")
        if (row["verdict"] == "true") != (amp <= SWEEP_VERDICT_MAX_X0):
            bad.append(f"verdict {row['verdict']} at x0 {amp}")
        if delta("exp", amp) > 0 and not abs(rate - SWEEP_RATE) <= 0.01 * SWEEP_RATE:
            bad.append(f"fitted rate {rate} at x0 {amp}")
        try:
            report = json.loads((out / f"amplitude_{amp:g}" / "report.json").read_text())
            series = np.asarray(report["series"]["rows"], dtype=float)
        except (OSError, ValueError, KeyError) as err:
            bad.append(f"report at x0 {amp}: {err}")
            continue
        if series.shape[0] != SWEEP_ROWS or not np.all(np.isfinite(series)):
            bad.append(f"report at x0 {amp}: {series.shape[0]} rows or non-finite values")
    return problems


def check_audit(results, tables, studies) -> list[list[str]]:
    """Every check passes; A01 threshold windows; A07 truncation windows."""
    problems = [[] if r.passed else [f"check {r.name} failed: {r.detail}"] for r in results]
    if len(results) != len(validation.ALL_CHECKS):
        problems.append([f"{len(results)} checks ran"])
    windows = {"exp": (0.104, 0.105), "adl": (0.0251, 0.0252)}
    for table in tables:
        lo, hi = windows[table["model"]]
        bad = []
        if not lo < table["root"] < hi or not table["bracket_width"] <= 1e-12:
            bad.append(f"{table['model']} threshold {table['root']!r}")
        if not all(math.isfinite(row["delta"]) for row in table["table"]):
            bad.append(f"{table['model']} margin table not finite")
        problems.append(bad)
    exp_study, adl_study = studies
    err = exp_study.errors[-1]
    problems.append([] if err < 1e-14 else [f"exp truncation error {err:.2e}"])
    ratio = adl_study.mean_tail_ratio(10)
    problems.append([] if 0.45 <= ratio <= 0.55 else [f"adl tail ratio {ratio:.4f}"])
    return problems


class Workload:
    """Runs rounds of one workload and checks their outputs."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        seed %= 2**63  # numpy generators take only non-negative seeds
        self.seed = seed
        self.workdir = workdir
        self.rounds_run = 0
        if name in ("ref1d", "surface2d"):
            self.specs = trajectory_specs(name, seed)
            pinned = json.loads(REFERENCE_FILE.read_text())
            self.pinned = [pinned[label] for label, *_ in self.specs]
            self.operations = len(self.specs)
        elif name == "sweep16":
            self.sweep_config = workdir / "sweep.yaml"
            write_sweep_config(self.sweep_config, seed)
            self.operations = len(SWEEP_AMPLITUDES)
        else:
            self.operations = AUDIT_OPERATIONS

    def run(self):
        """One round; returns what check() needs.  Timed by the caller."""
        self.rounds_run += 1
        if self.name in ("ref1d", "surface2d"):
            return [trajectory(raw) for _, _, _, raw in self.specs]
        if self.name == "sweep16":
            out = self.workdir / f"sweep-{self.rounds_run}"
            argv = ["sweep", str(self.sweep_config), "--workers", str(SWEEP_WORKERS), "--out", str(out)]
            return cli.main(argv), out
        results = validation.run_checks(seed=self.seed)
        tables = [cli.threshold_payload(kind) for kind in ("exp", "adl")]
        v = field_from_modes(GridSpec(1, 2, 32, padding_factor=1.0), [(1, 0.5, 0.0)])
        studies = [
            diagnostics.truncation_study("exp", v, (2, 6, 12, 20)),
            diagnostics.truncation_study("adl", v, tuple(range(2, 53, 2))),
        ]
        return results, tables, studies

    def check(self, outputs) -> list[list[str]]:
        """Problems per operation of the round; an empty list is a pass."""
        if self.name in ("ref1d", "surface2d"):
            return [
                check_trajectory(report, kind, amp, pinned)
                for report, (_, kind, amp, _), pinned in zip(outputs, self.specs, self.pinned)
            ]
        if self.name == "sweep16":
            rc, out = outputs
            problems = check_sweep(rc, out)
            shutil.rmtree(out, ignore_errors=True)
            return problems
        return check_audit(*outputs)


def percentile_ms(values, q: float) -> float:
    """Percentile in ms; 0 when a failed run recorded no samples."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) * 1e3 if len(values) else 0.0


def measure(workload: Workload, inst: Instrument, seconds: float) -> tuple[dict, np.ndarray]:
    """Closed loop of rounds for `seconds`; every round is timed and checked.

    Returns the rounds and every observer gap rescaled by the calibration
    bursts around it (see CAL_REF_S).
    """
    rounds = []
    gaps_ref = []
    start = clock()
    inst.calibrate()
    while True:
        inst.setup_end = None
        first_cal, first_gap, cal_before = len(inst.cal) - 1, len(inst.gaps), inst.cal_s
        t0 = clock()
        error = None
        try:
            outputs = workload.run()
        except Exception as err:  # a failing round is counted, not fatal
            error = f"{type(err).__name__}: {err}"
        t1 = clock()
        in_round_cal = inst.cal_s - cal_before
        inst.calibrate()
        workers = inst.merge_workers()
        rate = CAL_REF_S / np.array(inst.cal)
        scale = float(np.mean(rate[first_cal:]))
        if workload.name == "audit":
            # The audit has no observer; its samples are its round results.
            inst.gaps.append(t1 - t0 - in_round_cal)
            gaps_ref.append(np.array([scale * inst.gaps[-1]]))
        else:
            after = np.asarray(inst.gap_cal[first_gap:])
            around = 0.5 * (rate[after - 1] + rate[np.minimum(after, len(rate) - 1)])
            gaps_ref.append(around * np.asarray(inst.gaps[first_gap:]))
        if error is None:
            problems = workload.check(outputs)
        else:
            problems = [[error]] * workload.operations
        setup_end = inst.setup_end if inst.setup_end is not None else t0
        rounds.append(
            {
                "wall_s": t1 - setup_end - in_round_cal,
                "scale": scale,
                "window_s": t1 - t0,
                "attempted": len(problems),
                "failed": sum(1 for p in problems if p),
                "problems": sorted({msg for p in problems for msg in p})[:5],
                "worker_busy_s": workers["busy_s"],
                "worker_rss_kb": workers["rss_kb"],
            }
        )
        if error is not None or clock() - start >= seconds:
            return {"rounds": rounds}, np.concatenate(gaps_ref)


def untraced_metrics(phase: dict, gaps_ref: np.ndarray, inst: Instrument) -> dict:
    rounds = phase["rounds"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += max(r["worker_rss_kb"] for r in rounds)
    return {
        "wall_ref_s": float(np.median([r["wall_s"] * r["scale"] for r in rounds])),
        "sample_gap_ref_ms_p50": percentile_ms(gaps_ref, 50),
        "sample_gap_ref_ms_p90": percentile_ms(gaps_ref, 90),
        "peak_rss_mb": rss_kb / 1024.0,
        "samples": {
            "wall_ref_s": len(rounds),
            "sample_gap_ref_ms_p50": len(gaps_ref),
            "sample_gap_ref_ms_p90": len(gaps_ref),
        },
        "as_measured": {
            "wall_s": float(np.median([r["wall_s"] for r in rounds])),
            "sample_gap_ms_p50": percentile_ms(inst.gaps, 50),
            "sample_gap_ms_p90": percentile_ms(inst.gaps, 90),
            "calibration_ms_p50": percentile_ms(inst.cal, 50),
            "calibration_bursts": len(inst.cal),
        },
    }


def traced_metrics(phase: dict, inst: Instrument, untraced: dict) -> dict:
    """Per-layer metrics, each per round of the traced phase."""
    rounds = phase["rounds"]
    n = len(rounds)
    ids = {name: i for i, name in enumerate(inst.names)}
    calls = {name: inst.calls[i] for name, i in ids.items()}
    counts = inst.counts
    m = {}
    for name in LAYER_SPANS:
        m[f"{name}.self_s"] = inst.self_s[ids[name]] / n
    for name in (
        "spectral.inverse",
        "spectral.forward",
        "spectral.norms",
        "models.remainder",
        "models.rhs",
        "stepper.advance",
        "diagnostics.observer",
        "config.parse",
    ):
        m[f"{name}.calls"] = calls[name] / n
    m["spectral.fft_points"] = counts["spectral.fft_points"] / n
    bins = counts["fft_bins_in_transforms"]
    m["spectral.useful_bins_ratio"] = counts["retained_coeffs"] / bins if bins else 0.0
    advances = calls["stepper.advance"]
    m["models.remainder.per_step"] = calls["models.remainder"] / advances if advances else 0.0
    m["models.singular.count"] = counts["models.singular.count"] / n
    m["stepper.setup_s"] = inst.incl_s[ids["stepper.setup"]] / n
    observed = counts["coeffs_observed"]
    m["stepper.subnormal_frac"] = counts["coeffs_subnormal"] / observed if observed else 0.0
    m["cli.report_io.bytes"] = counts["cli.report_io.bytes"] / n
    member = np.frombuffer(inst.members).reshape(-1, 2)
    m["cli.sweep.member_s_sum"] = float(np.sum(member[:, 1] - member[:, 0])) / n
    m["cli.sweep.pool_wait_s"] = (
        sum(r["window_s"] - max(r["worker_busy_s"]) for r in rounds if r["worker_busy_s"]) / n
    )
    m["validation.checks.calls"] = calls["validation.checks"] / n
    m["validation.checks.failed"] = counts["validation.checks.failed"] / n
    wall = (sum(r["window_s"] for r in rounds) + float(np.sum(member[:, 1] - member[:, 0]))) / n
    m["trace.wall_s"] = wall
    m["trace.untraced_s"] = wall - sum(m[f"{name}.self_s"] for name in LAYER_SPANS)
    untraced_window = np.median([r["window_s"] for r in untraced["rounds"]])
    m["trace.overhead_ratio"] = float(np.median([r["window_s"] for r in rounds]) / untraced_window)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = Workload(args.workload, args.seed, args.workdir)
    result = {"numpy": np.__version__}
    if args.setup_only:
        with Instrument(False, args.workdir, setup_only=True) as inst:
            try:
                workload.run()
            except SetupReached:
                pass
        if inst.setup_end is None:
            print("set-up end was never reached", file=sys.stderr)
            return 1
        result["setup_end"] = inst.setup_end
        for _ in range(SETUP_BURSTS):
            inst.calibrate()
        result["setup_scale"] = float(np.mean(CAL_REF_S / np.array(inst.cal)))
        args.result.write_text(json.dumps(result))
        return 0

    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    with Instrument(False, args.workdir) as inst:
        untraced, gaps_ref = measure(workload, inst, phase_seconds)
    result["untraced"] = untraced
    result["metrics"] = untraced_metrics(untraced, gaps_ref, inst)
    if args.trace:
        with Instrument(True, args.workdir) as inst:
            traced, _ = measure(workload, inst, phase_seconds)
        result["traced"] = traced
        result["layers"] = traced_metrics(traced, inst, untraced)
        spans_file = ROOT / ".perfbench_trace" / f"{args.workload}.npz"
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        result["spans"] = inst.write_spans(spans_file)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

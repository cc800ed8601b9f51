"""Command line entry point: run, threshold, validate, and sweep.

Exit codes are the machine contract: 0 success, 1 usage or config error
or an output directory that cannot be written, 2 inadmissible initial data
under --strict, 3 runtime singularity or non-finite state.  Stdout is for
humans; the written files are for machines.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    build_grid,
    build_initial_field,
    build_model,
    build_stepper,
    load_run_config,
    load_sweep_config,
    parse_run_config,
    run_config_to_dict,
    sweep_member_dirname,
)
from .diagnostics import (
    RunReport,
    SOBOLEV_ORDERS,
    TimeSeries,
    TimeSeriesRecorder,
    WIENER_ORDERS,
    certify_decay,
    check_lyapunov_monotone,
    check_positivity,
    hr_decay_fit,
)
from .models import MODEL_KINDS, SingularityError
from .spectral import SpectralField, wiener_norm
from .stepper import NonFiniteStateError, integrate
# decay_envelope is not called here; perfbench traces it under this name.
from .theory import decay_envelope, delta, smallness_report, threshold_bracket  # noqa: F401
from .validation import run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_SINGULAR = 3

# Sobolev orders whose fitted decay rates go into the report.
HR_REPORT_ORDERS = (0.0, 1.0, 1.9)

# Threshold table granularity and the slack appended past the sign change.
THRESHOLD_TABLE_STEP = 0.01

_FLOAT_FMT = "%.17g"
# Rows per formatting call of the CSV and report.json writers.
_WRITE_CHUNK_ROWS = 256


def _norm_label(prefix: str, order: float) -> str:
    return prefix + f"{order:g}".replace(".", "_")


def timeseries_columns(series: TimeSeries) -> tuple[list[str], list[np.ndarray]]:
    """Declared column order shared by the CSV writer and the JSON report."""
    names = ["t"]
    cols = [series.times]
    for a in WIENER_ORDERS:
        names.append(_norm_label("wiener_", a))
        cols.append(series.wiener[a])
    names.append("l2")
    cols.append(series.l2)
    for a in SOBOLEV_ORDERS:
        names.append(_norm_label("h", a))
        cols.append(series.sobolev[a])
    names.extend(["linf", "lyapunov", "min_one_plus_v", "max_one_plus_v"])
    cols.extend(
        [series.linf, series.lyapunov, series.min_one_plus_v, series.max_one_plus_v]
    )
    return names, cols


def _chunks(columns) -> Iterator[np.ndarray]:
    """The float64 table of these columns, _WRITE_CHUNK_ROWS rows at a time."""
    table = np.column_stack(columns)
    return (table[i : i + _WRITE_CHUNK_ROWS] for i in range(0, len(table), _WRITE_CHUNK_ROWS))


def write_csv(path: Path, names, columns) -> None:
    """Header plus one row per entry of these float columns, each cell at
    17 significant digits; every chunk of rows is formatted by one %."""
    row_format = ",".join([_FLOAT_FMT] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for chunk in _chunks(columns):
            fh.write(row_format * len(chunk) % tuple(chunk.ravel().tolist()))


def write_timeseries_csv(path: Path, series: TimeSeries) -> None:
    write_csv(path, *timeseries_columns(series))


def write_decay_plot_csv(path: Path, report: RunReport) -> None:
    """t, |v|_0 and the certified envelope, ready for direct plotting."""
    t = report.series.times
    cert = report.certificate
    env = cert.envelope if cert is not None else np.full_like(t, math.nan)
    write_csv(path, ["t", "wiener_0", "envelope"], (t, report.series.wiener[0.0], env))


def _json_safe(obj):
    """Recursively replace non-finite floats, which JSON cannot encode."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _report_head(report: RunReport) -> dict:
    """report_payload with an empty list for the series rows."""
    names, _ = timeseries_columns(report.series)
    cert = report.certificate
    cert_payload = None
    if cert is not None:
        cert_payload = {
            "x0": report.x0,
            "delta": report.delta,
            "slack": cert.slack,
            "samples_total": int(len(cert.sample_ok)),
            "samples_within_envelope": int(np.count_nonzero(cert.sample_ok)),
            "all_within_envelope": cert.verdict,
            "fitted_rate": cert.fitted_rate,
        }
    payload = {"schema_version": 1, "config": report.config_echo}
    if report.sweep_member is not None:
        payload["sweep_member"] = report.sweep_member
    payload.update({
        "x0": report.x0,
        "delta": report.delta,
        "admissible": report.admissible,
        "certificate": cert_payload,
        "lyapunov_monotone": report.lyapunov_monotone,
        "positivity_ok": report.positivity_ok,
        "hr_decay_fits": {f"{a:g}": r for a, r in report.hr_decay_fits.items()},
        "series": {"columns": names, "rows": []},
    })
    return _json_safe(payload)


def report_payload(report: RunReport) -> dict:
    """JSON-ready dictionary for a RunReport, schema version 1."""
    payload = _report_head(report)
    table = np.column_stack(timeseries_columns(report.series)[1])
    payload["series"]["rows"] = _json_safe(table.tolist())
    return payload


# How json.dumps(indent=2) lays out the series rows, the last entry of the
# report: each row at 6 spaces, its numbers at 8, and what follows them.
_ROWS_EMPTY_TAIL = "[]\n  }\n}"
_ROWS_END = "\n    ]\n  }\n}\n"


def write_report_json(path: Path, report: RunReport) -> None:
    """report.json, byte for byte json.dumps(report_payload(report), indent=2)
    plus a newline.

    The series rows, nearly all of the file, do not go through the
    pure-Python encoder that indent=2 selects: a row template in that
    layout is filled with one % per chunk of rows.  %s of a float is its
    repr, which is what json writes; a chunk holding a non-finite number
    has its cells rendered by json.dumps of _json_safe first.  The rest of
    the payload is rendered with indent=2 and an empty row list, whose
    text is then replaced.
    """
    head = json.dumps(_report_head(report), indent=2)
    cols = timeseries_columns(report.series)[1]
    row_format = "      [\n        " + ",\n        ".join(["%s"] * len(cols)) + "\n      ]"
    with open(path, "w") as fh:
        if not len(report.series):
            fh.write(head + "\n")
            return
        fh.write(head.removesuffix(_ROWS_EMPTY_TAIL) + "[\n")
        separator = ""
        for chunk in _chunks(cols):
            cells = chunk.ravel().tolist()
            if not np.isfinite(chunk).all():
                cells = [json.dumps(x) for x in _json_safe(cells)]
            fh.write(separator + ",\n".join([row_format] * len(chunk)) % tuple(cells))
            separator = ",\n"
        fh.write(_ROWS_END)


def execute_run(cfg: RunConfig, v0: SpectralField) -> RunReport:
    """Integrate v0 under the configured model and collect the full report.

    An overflow surfaces as NonFiniteStateError, so numpy's overflow and
    invalid-value warnings, which would only repeat it, are silenced.
    """
    grid = v0.grid
    mcfg = build_model(cfg, grid)
    scfg = build_stepper(cfg)
    x0 = wiener_norm(v0, 0.0)
    admissibility = smallness_report(cfg.model.kind, x0)
    recorder = TimeSeriesRecorder(cfg.model.kind)
    with np.errstate(over="ignore", invalid="ignore"):
        integrate(mcfg, scfg, v0, observer=recorder)
        series = recorder.finalize()
    certificate = None
    if admissibility.admissible:
        certificate = certify_decay(series, x0, admissibility.delta)
    return RunReport(
        config_echo=run_config_to_dict(cfg),
        x0=x0,
        delta=admissibility.delta,
        admissible=admissibility.admissible,
        series=series,
        certificate=certificate,
        lyapunov_monotone=check_lyapunov_monotone(series),
        positivity_ok=check_positivity(series, x0),
        hr_decay_fits={a: hr_decay_fit(series, a) for a in HR_REPORT_ORDERS},
    )


def run_verdict(report: RunReport) -> bool:
    """True when decay is certified and every structural check holds."""
    return bool(
        report.certificate is not None
        and report.certificate.verdict
        and report.lyapunov_monotone
        and report.positivity_ok
    )


def failure_message(err: Exception) -> str:
    """One line for a run stopped by a singularity, a non-finite state or
    the dt guard."""
    if isinstance(err, SingularityError):
        if err.step_end is not None:
            where = f" in the step from t = {err.time:.6g} to t = {err.step_end:.6g}"
        elif err.time is not None:
            where = f" at t = {err.time:.6g}"
        else:
            where = ""
        return f"singularity{where}: {err}"
    return str(err)


def check_output_target(out_dir: Path) -> None:
    """Refuse an output directory that is a file or lies below one, before
    any work is done; creates nothing."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))


def write_output_bundle(report: RunReport, out_dir: Path, formats) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        p = out_dir / "timeseries.csv"
        write_timeseries_csv(p, report.series)
        written.append(p)
    if "json" in formats:
        p = out_dir / "report.json"
        write_report_json(p, report)
        written.append(p)
    if "plot" in formats:
        p = out_dir / "decay_plot.csv"
        write_decay_plot_csv(p, report)
        written.append(p)
    return written


def cmd_run(args) -> int:
    try:
        cfg = load_run_config(args.config)
        grid = build_grid(cfg)
        v0 = build_initial_field(cfg, grid, Path(args.config).resolve().parent)
        out_dir = Path(args.out) if args.out else Path(cfg.outputs.directory)
        check_output_target(out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_USAGE
    x0 = wiener_norm(v0, 0.0)
    admissibility = smallness_report(cfg.model.kind, x0)
    if not admissibility.admissible:
        print(
            f"warning: initial amplitude {x0:.6g} is past the decay threshold "
            f"(delta = {admissibility.delta:.6g} <= 0); no envelope will be certified",
            file=sys.stderr,
        )
        if args.strict:
            print("aborting: --strict refuses inadmissible initial data", file=sys.stderr)
            return EXIT_INADMISSIBLE
    try:
        report = execute_run(cfg, v0)
    except (SingularityError, NonFiniteStateError) as err:
        print(failure_message(err), file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE

    try:
        written = write_output_bundle(report, out_dir, cfg.outputs.formats)
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_USAGE

    print(f"model: {cfg.model.kind} ({cfg.model.mode})")
    print(f"x0 = {report.x0:.12g}, delta = {report.delta:.12g}, admissible: {report.admissible}")
    n = len(report.series)
    print(
        f"samples: {n}, final t = {report.series.times[-1]:.6g}, "
        f"final |v|_0 = {report.series.wiener[0.0][-1]:.6g}"
    )
    if report.certificate is not None:
        cert = report.certificate
        ok = int(np.count_nonzero(cert.sample_ok))
        print(
            f"envelope: {ok}/{n} samples within x0 exp(-delta t), "
            f"fitted rate {cert.fitted_rate:.6g}"
        )
    else:
        print("envelope: not certified (inadmissible initial data)")
    print(
        f"lyapunov monotone: {report.lyapunov_monotone}, "
        f"positivity: {report.positivity_ok}, verdict: {run_verdict(report)}"
    )
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


def threshold_payload(kind: str) -> dict:
    lo, hi = threshold_bracket(kind)
    root = 0.5 * (lo + hi)
    table = []
    x = 0.0
    while True:
        d = delta(kind, x)
        table.append({"x": round(x, 10), "delta": d})
        if d < 0:
            break
        x += THRESHOLD_TABLE_STEP
    return {
        "model": kind,
        "root": root,
        "bracket": [lo, hi],
        "bracket_width": hi - lo,
        "table": table,
    }


def cmd_threshold(args) -> int:
    payload = threshold_payload(args.model)
    if args.json:
        json.dump(_json_safe(payload), sys.stdout, indent=2)
        print()
        return EXIT_OK
    print(f"model: {payload['model']}")
    print(f"threshold root: {payload['root']:.12g}")
    lo, hi = payload["bracket"]
    print(f"bracket: [{lo:.17g}, {hi:.17g}] (width {payload['bracket_width']:.3g})")
    print(f"{'x':>6}  {'delta':>22}")
    for row in payload["table"]:
        print(f"{row['x']:>6.2f}  {row['delta']:>22.15g}")
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_checks(name_filter=args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        payload = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
        json.dump(_json_safe(payload), sys.stdout, indent=2)
        print()
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<24} {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_USAGE


def _sweep_worker(payload) -> dict:
    """One sweep member from (raw config, base initial coefficients,
    {"amplitude": a, "scale": a / x0 of the base}, member directory);
    module-level so process pools can pickle it."""
    raw_cfg, base_coeffs, member, out_dir = payload
    cfg = parse_run_config(raw_cfg)
    # The grid is rebuilt: an unpickled grid runs slower.
    v0 = SpectralField(build_grid(cfg), base_coeffs * member["scale"])
    try:
        report = execute_run(cfg, v0)
    except (SingularityError, NonFiniteStateError, ValueError) as err:
        # A member that fails to run (singular, overflowed, or refused by the
        # dt guard) is recorded as a failed row; the sweep goes on.
        x0 = wiener_norm(v0, 0.0)
        return {
            "x0": x0,
            "delta": smallness_report(cfg.model.kind, x0).delta,
            "fitted_rate": math.nan,
            "verdict": False,
            "error": failure_message(err),
        }
    report.sweep_member = member
    write_output_bundle(report, out_dir, cfg.outputs.formats)
    cert = report.certificate
    return {
        "x0": report.x0,
        "delta": report.delta,
        "fitted_rate": cert.fitted_rate if cert is not None else math.nan,
        "verdict": run_verdict(report),
        "error": "",
    }


def write_sweep_aggregate(path: Path, rows) -> None:
    """One row per member: x0, delta and fitted_rate at 17 significant
    digits, the verdict lowercase, then `error`, empty for a member that
    ran and its one-line failure_message otherwise."""
    with open(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x0", "delta", "fitted_rate", "verdict", "error"])
        for row in rows:
            writer.writerow([
                _FLOAT_FMT % row["x0"],
                _FLOAT_FMT % row["delta"],
                _FLOAT_FMT % row["fitted_rate"],
                str(row["verdict"]).lower(),
                row["error"],
            ])


def cmd_sweep(args) -> int:
    try:
        sweep = load_sweep_config(args.config)
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers: must be >= 1, got {args.workers}")
        base = sweep.base
        grid = build_grid(base)
        build_stepper(base)  # refuses e.g. sample_every < 1 before any member runs
        v0 = build_initial_field(base, grid, Path(args.config).resolve().parent)
        x0 = wiener_norm(v0, 0.0)
        if x0 == 0:
            raise ConfigError("base initial data is identically zero; cannot rescale")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    out_base = Path(args.out) if args.out else Path(base.outputs.directory)
    raw_cfg = run_config_to_dict(base)
    payloads = [
        (raw_cfg, v0.coeffs, {"amplitude": a, "scale": a / x0}, out_base / sweep_member_dirname(a))
        for a in sweep.amplitudes
    ]
    # A process pool starts all its workers up front, so it is never larger
    # than the number of members.
    workers = min(sweep.workers if args.workers is None else args.workers, len(payloads))
    try:
        for *_, member_dir in payloads:
            check_output_target(member_dir)
        if workers == 1:
            rows = [_sweep_worker(p) for p in payloads]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_worker, payloads))
        rows.sort(key=lambda r: r["x0"])
        out_base.mkdir(parents=True, exist_ok=True)
        aggregate = out_base / "sweep_aggregate.csv"
        write_sweep_aggregate(aggregate, rows)
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{'x0':>12} {'delta':>14} {'fitted_rate':>14} {'verdict':>8}")
    for row in rows:
        note = f"  ({row['error']})" if row["error"] else ""
        print(
            f"{row['x0']:>12.6g} {row['delta']:>14.6g} "
            f"{row['fitted_rate']:>14.6g} {str(row['verdict']).lower():>8}{note}"
        )
    print(f"wrote {aggregate}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalsurf",
        description=(
            "Spectral solver and verification suite for two fourth-order "
            "surface-diffusion equations on the periodic torus."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured trajectory")
    p_run.add_argument("config", help="path to a run config file")
    p_run.add_argument(
        "--strict",
        action="store_true",
        help="refuse initial data past the decay threshold instead of warning",
    )
    p_run.add_argument("--out", help="output directory (overrides the config)")
    p_run.set_defaults(func=cmd_run)

    p_thr = sub.add_parser("threshold", help="print a model's smallness threshold")
    p_thr.add_argument("model", choices=MODEL_KINDS)
    p_thr.add_argument("--json", action="store_true", help="machine-readable output")
    p_thr.set_defaults(func=cmd_threshold)

    p_val = sub.add_parser("validate", help="run the numerical property suite")
    p_val.add_argument(
        "--filter", help="only run checks whose name contains this substring"
    )
    p_val.add_argument("--json", action="store_true", help="machine-readable output")
    p_val.set_defaults(func=cmd_validate)

    p_sw = sub.add_parser("sweep", help="run an amplitude sweep concurrently")
    p_sw.add_argument("config", help="path to a sweep config file")
    p_sw.add_argument("--workers", type=int, help="worker processes (overrides config)")
    p_sw.add_argument("--out", help="output directory (overrides the config)")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point: run, threshold, validate, and sweep.

Exit codes are the machine contract: 0 success, 1 usage or config error,
an output directory that cannot be written or arrays that cannot be
allocated, 2 inadmissible initial data under --strict, 3 runtime
singularity or non-finite state.  The commands raise; `main` is the one
place where an exception becomes its exit code and a one-line message on
stderr.  Stdout is for humans; the written files are for machines.
"""

from __future__ import annotations

import argparse
import csv
import errno
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator
from contextlib import ExitStack
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    OUTPUT_FILES,
    ConfigError,
    RunConfig,
    as_worker_count,
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
    SERIES_COLUMNS,
    TimeSeriesRecorder,
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


class InadmissibleDataError(Exception):
    """--strict's refusal of initial data past the decay threshold."""


# Sobolev orders whose fitted decay rates go into the report.
HR_REPORT_ORDERS = (0.0, 1.0, 1.9)

# Threshold table granularity and the slack appended past the sign change.
THRESHOLD_TABLE_STEP = 0.01

# Rows per formatting call of the series files.
_WRITE_CHUNK_ROWS = 256


def _formatted_chunks(table: np.ndarray) -> Iterator[tuple[int, np.ndarray, list[str]]]:
    """The float64 table, _WRITE_CHUNK_ROWS rows at a time: each chunk's
    first row index, the chunk, and the repr of its cells row by row, the
    shortest text that reads back to the same double."""
    for start in range(0, len(table), _WRITE_CHUNK_ROWS):
        chunk = table[start : start + _WRITE_CHUNK_ROWS]
        yield start, chunk, list(map(repr, chunk.ravel().tolist()))


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
        "series": {"columns": list(SERIES_COLUMNS), "rows": []},
    })
    return _json_safe(payload)


def report_payload(report: RunReport) -> dict:
    """JSON-ready dictionary for a RunReport, schema version 1."""
    payload = _report_head(report)
    payload["series"]["rows"] = _json_safe(report.series.table.tolist())
    return payload


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


# How json.dumps(indent=2) lays out the series rows, the last entry of the
# report: each row at 6 spaces, its numbers at 8, and what follows them.
_ROWS_EMPTY_TAIL = "[]\n  }\n}"
_ROWS_END = "\n    ]\n  }\n}\n"


def write_output_bundle(report: RunReport, out_dir: Path, formats) -> list[Path]:
    """Write the files of `formats` into out_dir, in the order and under the
    names of config.OUTPUT_FILES: timeseries.csv (csv), report.json (json)
    and decay_plot.csv (plot); returns their paths.

    Every series number is formatted once, _WRITE_CHUNK_ROWS rows at a
    time, as its repr, the shortest text that reads back to the same
    double, and that one text serves every file: the timeseries.csv
    cells, the report.json rows and the t and wiener_0 cells of
    decay_plot.csv.  Each file's rows of a chunk are one % of its row
    template.  Only the envelope column of decay_plot.csv is formatted on
    its own.  A float's repr is the text json writes for it; a chunk
    holding a non-finite number has its report.json cells rendered by
    json.dumps of _json_safe instead, so non-finite numbers read nan, inf
    and -inf in the CSV files and are the strings "nan", "inf" and "-inf"
    in report.json.  The rest of report.json is rendered with indent=2
    and an empty row list, whose text is then replaced, so the file is
    byte for byte json.dumps(report_payload(report), indent=2) plus a
    newline.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {f: out_dir / name for f, name in OUTPUT_FILES.items() if f in formats}
    table = report.series.table
    if paths.keys() == {"plot"}:
        table = table[:, :2]  # t and wiener_0, the columns decay_plot.csv shares
    width = table.shape[1]
    csv_row = ",".join(["%s"] * width) + "\n"
    json_row = "      [\n        " + ",\n        ".join(["%s"] * width) + "\n      ]"
    cert = report.certificate
    envelope = cert.envelope if cert is not None else np.full(len(report.series), math.nan)
    with ExitStack() as stack:
        fh = {f: stack.enter_context(open(p, "w")) for f, p in paths.items()}
        if "csv" in fh:
            fh["csv"].write(",".join(SERIES_COLUMNS) + "\n")
        if "json" in fh:
            head = json.dumps(_report_head(report), indent=2)
            if len(report.series):
                head = head.removesuffix(_ROWS_EMPTY_TAIL) + "["
            fh["json"].write(head + "\n")
        if "plot" in fh:
            fh["plot"].write(",".join(SERIES_COLUMNS[:2]) + ",envelope\n")
        separator = ""
        for start, chunk, cells in _formatted_chunks(table):
            n = len(chunk)
            if "csv" in fh:
                fh["csv"].write(csv_row * n % tuple(cells))
            if "json" in fh:
                json_cells = cells
                if not np.isfinite(chunk).all():
                    json_cells = [json.dumps(x) for x in _json_safe(chunk.ravel().tolist())]
                fh["json"].write(separator + ",\n".join([json_row] * n) % tuple(json_cells))
                separator = ",\n"
            if "plot" in fh:
                plot_cells = [None] * (3 * n)
                plot_cells[0::3] = cells[0::width]
                plot_cells[1::3] = cells[1::width]
                plot_cells[2::3] = envelope[start : start + n].tolist()
                fh["plot"].write("%s,%s,%r\n" * n % tuple(plot_cells))
        if "json" in fh and len(report.series):
            fh["json"].write(_ROWS_END)
    return list(paths.values())


def cmd_run(args) -> int:
    cfg = load_run_config(args.config)
    grid = build_grid(cfg)
    # Refuses e.g. a step count past max_steps, or a t_end off dt's step
    # grid, before the warning.
    build_stepper(cfg)
    v0 = build_initial_field(cfg, grid, Path(args.config).resolve().parent)
    out_dir = Path(args.out) if args.out else Path(cfg.outputs.directory)
    check_output_target(out_dir)
    x0 = wiener_norm(v0, 0.0)
    admissibility = smallness_report(cfg.model.kind, x0)
    if not admissibility.admissible:
        past = f"{x0:.6g} is past the decay threshold (delta = {admissibility.delta:.6g} <= 0)"
        if args.strict:
            raise InadmissibleDataError(f"--strict refuses inadmissible initial data: x0 = {past}")
        print(f"warning: initial amplitude {past}; no envelope will be certified", file=sys.stderr)
    report = execute_run(cfg, v0)
    written = write_output_bundle(report, out_dir, cfg.outputs.formats)

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
    for k in itertools.count():
        # Row k at its printed x: a running sum of steps drifts off it
        # (ten steps of 0.01 make 0.09999999999999999).
        x = round(k * THRESHOLD_TABLE_STEP, 10)
        d = delta(kind, x)
        table.append({"x": x, "delta": d})
        if d < 0:
            break
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
    print(f"bracket: [{lo!r}, {hi!r}] (width {payload['bracket_width']:.3g})")
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
            "checks": [asdict(r) for r in results],
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
    """One row per member: x0, delta and fitted_rate as their repr, the
    text report.json gives them (nan where a member has no rate), the
    verdict lowercase, then `error`, empty for a member that ran and its
    one-line failure_message otherwise."""
    with open(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x0", "delta", "fitted_rate", "verdict", "error"])
        for row in rows:
            writer.writerow([
                repr(float(row["x0"])),
                repr(float(row["delta"])),
                repr(float(row["fitted_rate"])),
                str(row["verdict"]).lower(),
                row["error"],
            ])


def cmd_sweep(args) -> int:
    sweep = load_sweep_config(args.config)
    workers = sweep.workers if args.workers is None else as_worker_count(args.workers, "--workers")
    base = sweep.base
    grid = build_grid(base)
    # Refuses e.g. sample_every < 1, too many steps, or a t_end off dt's
    # step grid, before any member runs.
    build_stepper(base)
    v0 = build_initial_field(base, grid, Path(args.config).resolve().parent)
    x0 = wiener_norm(v0, 0.0)
    if x0 == 0:
        raise ConfigError("base initial data is identically zero; cannot rescale")
    for i, a in enumerate(sweep.amplitudes):
        if not math.isfinite(a / x0):
            raise ConfigError(
                f"sweep.amplitudes[{i}]: {a!r} / base |v0|_0 {x0!r} overflows; cannot rescale"
            )
    out_base = Path(args.out) if args.out else Path(base.outputs.directory)
    raw_cfg = run_config_to_dict(base)
    payloads = [
        (raw_cfg, v0.coeffs, {"amplitude": a, "scale": a / x0}, out_base / sweep_member_dirname(a))
        for a in sweep.amplitudes
    ]
    # A process pool starts all its workers up front, so it is never larger
    # than the number of members.
    workers = min(workers, len(payloads))
    for *_, member_dir in payloads:
        check_output_target(member_dir)
    if workers == 1:
        rows = [_sweep_worker(p) for p in payloads]
    else:
        # Imported here, so no other command pays ~11 ms to load it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, payloads))
    rows.sort(key=lambda r: r["x0"])
    out_base.mkdir(parents=True, exist_ok=True)
    aggregate = out_base / "sweep_aggregate.csv"
    write_sweep_aggregate(aggregate, rows)
    print(f"{'x0':>12} {'delta':>14} {'fitted_rate':>14} {'verdict':>8}")
    for row in rows:
        note = f"  ({row['error']})" if row["error"] else ""
        print(
            f"{row['x0']:>12.6g} {row['delta']:>14.6g} "
            f"{row['fitted_rate']:>14.6g} {str(row['verdict']).lower():>8}{note}"
        )
    print(f"wrote {aggregate}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1 with their one
    `prog: error: ...` line; exit 2 is the --strict refusal.
    add_subparsers builds the subcommand parsers with this class too."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Parse argv and run its command; the one place where a command's
    failure becomes its exit code and one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InadmissibleDataError as err:
        message, code = f"aborting: {err}", EXIT_INADMISSIBLE
    except (SingularityError, NonFiniteStateError) as err:
        message, code = failure_message(err), EXIT_SINGULAR
    except OSError as err:
        message, code = f"cannot write output: {err}", EXIT_USAGE
    except ValueError as err:
        # ConfigError (a StepperConfig refusal, max_steps and a t_end off
        # dt's step grid included, is one), and integrate's dt-guard refusal.
        message, code = f"config error: {err}", EXIT_USAGE
    except MemoryError as err:
        message, code = f"out of memory: {err}", EXIT_USAGE
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

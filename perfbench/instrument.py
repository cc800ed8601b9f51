"""Outside-in instrumentation of the crystalsurf package.

Nothing under src/ is edited.  `Instrument.install` swaps the names one
crystalsurf module imports from another (plus a few class attributes and
the numpy.fft entry points) for wrappers, and `uninstall` puts every
original object back.

Two levels:

* untraced (always on): timestamps at the public observer hook of
  `integrate` and the end-of-setup marker.  Cost is one clock read per
  observer sample, plus the calibration bursts below.
* traced: additionally a span around every layer boundary.  A span is
  (pid, id, name, start, end, parent id); spans stay in memory and are
  written once, when the benchmark process ends.  Self time of a span is
  its duration minus the time covered by its child spans.

Calibration: the host this benchmark is tuned on is shared, and the speed of
each CPU changes by up to 1.7x from one second to the next and drifts over
minutes, whatever this process does.  So every process that runs workload
code also runs a fixed numpy kernel (`calibration_kernel`, independent of
crystalsurf) for about a millisecond at the observer hook (in the audit,
before a validation check) at most every CAL_INTERVAL_S, and the benchmark
runs it once between rounds.  The bursts sample the CPU speed at the times
the workload ran; workload.py rescales each observer gap by the bursts of
the same process just before and after it, and each round's time by the
bursts of the round.  Burst time is left out of the observer gaps and of
the time of the round that ran it.

Sweep workers are forked by the package's ProcessPoolExecutor.  They
inherit the wrappers; an after-fork hook clears the copied state and
registers a finalizer that writes the worker's data to one file per
process when it exits, and the parent merges those files after each sweep.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from array import array
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

from crystalsurf import cli, diagnostics, models, spectral, stepper, theory, validation

clock = time.perf_counter

# At most one calibration burst per this interval in each process.
CAL_INTERVAL_S = 0.1

# Bound before any numpy.fft wrapper is installed, so bursts are never
# counted as the program's transforms.
_FFT, _IFFT, _FFT2, _IFFT2 = np.fft.fft, np.fft.ifft, np.fft.fft2, np.fft.ifft2
_CAL_RNG = np.random.default_rng(0)
_CAL_1D = 0.01 * _CAL_RNG.random(130)
_CAL_2D = 0.01 * _CAL_RNG.random((130, 130))


def calibration_kernel() -> None:
    """About 1 ms of fixed numpy work in the regimes the workloads run in:
    per-call overhead on 130-point arrays (a 1D M=32 step) and one 130^2
    transform pair with the pointwise log1p/expm1 (a 2D step)."""
    for _ in range(16):
        c = _FFT(_CAL_1D)
        np.expm1(-3.0 * np.log1p(_IFFT(0.5 * c).real))
    c = _FFT2(_CAL_2D)
    np.expm1(-3.0 * np.log1p(_IFFT2(0.5 * c).real))


# Spans the benchmark adds around its own hooks.  Their self time is not a
# layer's: it is reported as part of trace.untraced_s.
BENCH_SPAN = "bench"

# Layer spans.  The self time of each one feeds exactly one *.self_s metric,
# so those metrics plus trace.untraced_s add up to trace.wall_s.
LAYER_SPANS = (
    "spectral.inverse",
    "spectral.forward",
    "spectral.norms",
    "models.remainder",
    "models.rhs",
    "stepper.advance",
    "stepper.integrate",
    "stepper.setup",
    "diagnostics.observer",
    "diagnostics.post",
    "cli",
    "cli.report_io",
    "config.parse",
    "theory",
    "validation.checks",
)
TRANSFORM_SPANS = ("spectral.inverse", "spectral.forward")

# Plain (untimed) wrappers around the numpy FFT entry points.  For a
# real-input transform the complex bins computed are P/2+1 along the last
# axis; every other transform computes one complex bin per point.
_FFT_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "rfft2", "rfftn")
_FFT_REAL_OUT = ("irfft", "irfft2", "irfftn")


# Exact counters; workload.traced_metrics derives the per-layer metrics from them.
COUNTERS = (
    "spectral.fft_points",
    "fft_bins_in_transforms",
    "retained_coeffs",
    "models.singular.count",
    "coeffs_observed",
    "coeffs_subnormal",
    "cli.report_io.bytes",
    "validation.checks.failed",
)


class SetupReached(Exception):
    """Raised at the end of setup when only the set-up time is measured."""


def _span_table():
    """(owner, attribute, span name) for every plain layer boundary."""
    rec = diagnostics.TimeSeriesRecorder
    table = [
        (models, "_phys_from_coeffs", "spectral.inverse"),
        (models, "to_physical", "spectral.inverse"),
        (diagnostics, "to_physical", "spectral.inverse"),
        (theory, "to_physical", "spectral.inverse"),
        (spectral, "to_physical", "spectral.inverse"),
        (models, "_coeffs_from_phys", "spectral.forward"),
        (models, "from_physical", "spectral.forward"),
        (spectral, "from_physical", "spectral.forward"),
        (diagnostics, "rhs", "models.rhs"),
        (stepper._Stepper, "advance", "stepper.advance"),
        (stepper._Stepper, "__init__", "stepper.setup"),
        (stepper, "dt_guard", "stepper.setup"),
        (stepper, "integrate", "stepper.integrate"),
        (rec, "__call__", "diagnostics.observer"),
        (rec, "finalize", "diagnostics.post"),
        (diagnostics, "truncation_study", "diagnostics.post"),
        (cli, "execute_run", "cli"),
        (cli, "threshold_payload", "cli"),
        (cli, "write_output_bundle", "cli.report_io"),
        (cli, "write_sweep_aggregate", "cli.report_io"),
        (cli, "parse_run_config", "config.parse"),
    ]
    for name in ("certify_decay", "check_lyapunov_monotone", "check_positivity", "hr_decay_fit"):
        table.append((cli, name, "diagnostics.post"))
    for owner, names in (
        (diagnostics, ("wiener_norm", "sobolev_norm", "linf_norm")),
        (spectral, ("wiener_norm", "l2_norm", "linf_norm")),
        (theory, ("wiener_norm",)),
        (stepper, ("wiener_norm",)),
        (cli, ("wiener_norm",)),
    ):
        table.extend((owner, name, "spectral.norms") for name in names)
    for name in ("interpolation_check", "series_identity_check", "delta_exp_coefficient_audit"):
        table.append((theory, name, "theory"))
    for name in ("delta", "threshold_bracket", "smallness_report", "decay_envelope"):
        table.append((cli, name, "theory"))
    return table


def _retained(name, args, result):
    """Retained Fourier coefficients handled by one transform call."""
    if name == "_phys_from_coeffs":
        return args[1].size
    if name == "_coeffs_from_phys":
        return result.size
    if name == "to_physical":
        return args[0].coeffs.size
    return result.coeffs.size  # from_physical


class Instrument:
    """Hooks for one benchmark phase; a traced phase also records spans."""

    def __init__(self, trace: bool, workdir: Path, setup_only: bool = False):
        self.trace = trace
        self.workdir = Path(workdir)
        self.setup_only = setup_only
        self.active = False
        self._saved: list[tuple[object, str, object]] = []
        self.names = [BENCH_SPAN, *LAYER_SPANS]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._transform_ids = {self._ids[n] for n in TRANSFORM_SPANS}
        self.self_s, self.incl_s, self.calls = [], [], []
        self.spans, self.gaps, self.members = array("d"), array("d"), array("d")
        self.cal = array("d")
        self.gap_cal = array("q")  # per gap: index in self.cal of the next burst
        self.stack: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._reset()
        mp_util.register_after_fork(self, Instrument._after_fork)

    # -- state -------------------------------------------------------------

    def _reset(self) -> None:
        """Clear recorded data in place; the wrappers hold references to it."""
        n = len(self.names)
        self.self_s[:] = [0.0] * n
        self.incl_s[:] = [0.0] * n
        self.calls[:] = [0] * n
        for buf in (self.spans, self.gaps, self.members, self.cal, self.gap_cal):
            del buf[:]
        del self.stack[:]
        self.counts.update(dict.fromkeys(self.counts, 0))
        self.worker_spans = []
        self.next_id = 0
        self.pid = os.getpid()
        self.setup_end = None
        self.cal_s = 0.0  # wall time spent in bursts by this process
        self.last_cal = clock()

    def calibrate(self) -> None:
        """One calibration burst; its duration is recorded in self.cal."""
        t0 = clock()
        calibration_kernel()
        t1 = clock()
        self.cal.append(t1 - t0)
        self.cal_s += t1 - t0
        self.last_cal = t1

    def mark_setup_end(self) -> None:
        if self.setup_end is None:
            self.setup_end = clock()
            if self.setup_only:
                raise SetupReached

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = self._ids[name]
        stack, spans = self.stack, self.spans
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0, nid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][1] += d
                self_s[nid] += d - frame[1]
                incl_s[nid] += d
                calls[nid] += 1
                spans.extend((sid, nid, t0, t1, parent))
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _observer(self, observer):
        """Timestamp every observer call of one integrate run."""
        gaps, gap_cal = self.gaps, self.gap_cal
        last = None

        def observe(t, v):
            nonlocal last
            now = clock()
            self.mark_setup_end()
            if last is not None:
                gaps.append(now - last)
                gap_cal.append(len(self.cal))
            if now - self.last_cal >= CAL_INTERVAL_S:
                self.calibrate()
                now = self.last_cal
            last = now
            if self.trace:
                a = np.abs(v.coeffs)
                self.counts["coeffs_observed"] += a.size
                self.counts["coeffs_subnormal"] += int(
                    np.count_nonzero((a > 0) & (a < np.finfo(a.dtype).tiny))
                )
            return observer(t, v)

        return self._span(BENCH_SPAN, observe) if self.trace else observe

    def _integrate(self, original):
        def integrate(cfg, scfg, v0, observer=None, nonlinearity=None):
            if observer is not None:
                observer = self._observer(observer)
            return original(cfg, scfg, v0, observer=observer, nonlinearity=nonlinearity)

        functools.update_wrapper(integrate, original)
        return self._span("stepper.integrate", integrate) if self.trace else integrate

    def _load_sweep_config(self, original):
        def load_sweep_config(path):
            result = original(path)
            self.mark_setup_end()
            return result

        functools.update_wrapper(load_sweep_config, original)
        return self._span("config.parse", load_sweep_config) if self.trace else load_sweep_config

    def _check(self, original):
        """Marks the end of set-up at the first check and, as the audit has
        no observer, runs the calibration bursts between checks (outside
        the check's span)."""
        inner = original
        if self.trace:

            def count_failed(args, result):
                self.counts["validation.checks.failed"] += 0 if result.passed else 1

            inner = self._span("validation.checks", original, after=count_failed)

        def check(rng):
            self.mark_setup_end()
            if clock() - self.last_cal >= CAL_INTERVAL_S:
                self.calibrate()
            return inner(rng)

        return functools.update_wrapper(check, original)

    def _remainder_fn(self, original):
        def remainder_fn(cfg):
            inner = original(cfg)

            def evaluate(coeffs, time=None):
                try:
                    return inner(coeffs, time=time)
                except models.SingularityError:
                    self.counts["models.singular.count"] += 1
                    raise

            return self._span("models.remainder", evaluate)

        return functools.update_wrapper(remainder_fn, original)

    def _sweep_worker(self, original):
        members = self.members

        def sweep_worker(payload):
            t0 = clock()
            try:
                return original(payload)
            finally:
                members.extend((t0, clock()))

        functools.update_wrapper(sweep_worker, original)
        return self._span("cli", sweep_worker)

    def _fft(self, original, real_out: bool):
        counts, stack, transform_ids = self.counts, self.stack, self._transform_ids

        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            if real_out:
                bins = out.size // out.shape[-1] * (out.shape[-1] // 2 + 1)
            else:
                bins = out.size
            counts["spectral.fft_points"] += bins
            if stack and stack[-1][2] in transform_ids:
                counts["fft_bins_in_transforms"] += bins
            return out

        return functools.update_wrapper(counted, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Instrument":
        self.active = True
        self._patch(cli, "integrate", self._integrate(cli.integrate))
        self._patch(cli, "load_sweep_config", self._load_sweep_config(cli.load_sweep_config))
        self._patch(validation, "ALL_CHECKS", tuple(self._check(f) for f in validation.ALL_CHECKS))
        if not self.trace:
            return self
        for owner, attr, name in _span_table():
            original = owner.__dict__[attr]
            after = None
            if name in TRANSFORM_SPANS:
                after = functools.partial(self._count_retained, attr)
            elif name == "cli.report_io":
                after = self._count_bytes
            self._patch(owner, attr, self._span(name, original, after))
        self._patch(stepper, "remainder_fn", self._remainder_fn(stepper.remainder_fn))
        self._patch(cli, "_sweep_worker", self._sweep_worker(cli._sweep_worker))
        for attr in _FFT_COMPLEX + _FFT_REAL_OUT:
            self._patch(np.fft, attr, self._fft(getattr(np.fft, attr), attr in _FFT_REAL_OUT))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.active = False

    def __enter__(self) -> "Instrument":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _count_retained(self, attr, args, result) -> None:
        self.counts["retained_coeffs"] += _retained(attr, args, result)

    def _count_bytes(self, args, result) -> None:
        paths = result if isinstance(result, list) else [args[0]]
        self.counts["cli.report_io.bytes"] += sum(Path(p).stat().st_size for p in paths)

    # -- sweep workers -----------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self._reset()
        self.calibrate()  # every gap has a burst before it
        mp_util.Finalize(self, self._flush_worker, exitpriority=10)

    def _flush_worker(self) -> None:
        state = {
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "calls": self.calls,
            "counts": self.counts,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        np.savez(
            self.workdir / f"worker-{os.getpid()}.npz",
            state=np.array(json.dumps(state)),
            gaps=np.frombuffer(self.gaps, dtype=float),
            cal=np.frombuffer(self.cal, dtype=float),
            gap_cal=np.frombuffer(self.gap_cal, dtype=np.int64),
            spans=np.frombuffer(self.spans, dtype=float),
            members=np.frombuffer(self.members, dtype=float),
        )

    def merge_workers(self) -> dict:
        """Fold the files written by exited sweep workers into this process.

        Returns per-worker busy time (sum of member spans) and the sum of the
        workers' peak RSS.
        """
        busy = []
        rss_kb = 0
        for path in sorted(self.workdir.glob("worker-*.npz")):
            with np.load(path) as data:
                state = json.loads(str(data["state"]))
                self.gaps.extend(data["gaps"])
                self.gap_cal.extend(data["gap_cal"] + len(self.cal))
                self.cal.extend(data["cal"])
                members = data["members"].reshape(-1, 2)
                pid = int(path.stem.split("-")[1])
                if data["spans"].size:
                    self.worker_spans.append((pid, data["spans"].copy()))
            path.unlink()
            for i in range(len(self.names)):
                self.self_s[i] += state["self_s"][i]
                self.incl_s[i] += state["incl_s"][i]
                self.calls[i] += state["calls"][i]
            for key, value in state["counts"].items():
                self.counts[key] += value
            rss_kb += state["rss_kb"]
            busy.append(float(np.sum(members[:, 1] - members[:, 0])))
            self.members.extend(members.ravel())
        return {"busy_s": busy, "rss_kb": rss_kb}

    def write_spans(self, path: Path) -> int:
        """Write all spans (this process and merged workers) in one file."""
        parts = [(self.pid, np.frombuffer(self.spans, dtype=float)), *self.worker_spans]
        rows = []
        for pid, flat in parts:
            block = flat.reshape(-1, 5)
            rows.append(np.column_stack([np.full(len(block), float(pid)), block]))
        table = np.concatenate(rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            spans=table,
            columns=np.array(["pid", "id", "name", "start", "end", "parent"]),
            names=np.array(self.names),
        )
        return len(table)

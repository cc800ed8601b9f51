"""Benchmark of crystalsurf: four workloads, end-to-end metrics, layer trace.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one table

NAME is one of ref1d, surface2d, sweep16, audit (see BENCHMARK.json for why
each is there).  Run from the repository root; the package is imported from
src/ of the same tree.

With --trace 0 the end-to-end metrics are measured: set-up time over
several fresh interpreters, then one child process running the workload in
a closed loop.  With --trace 1 the child runs the workload untraced and then
traced, and the per-layer metrics are reported instead.

Output: one line per metric with its unit and sample count, a `detail:`
line with the environment, seed and failures, and, last, one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit status 0 when every
output checked is correct, 1 when any operation failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 20250822
TIME_LIMIT_S = 170.0

# Fresh interpreters timed for setup_s, after one untimed start that
# compiles the package's bytecode.
SETUP_PROBES = 7

# One compute thread: pocketfft (numpy.fft) is single-threaded already;
# this keeps BLAS-backed numpy calls (polyfit) to one thread as well.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "fft": "numpy.fft (pocketfft), single-threaded",
        "threads": "one compute thread per process; sweep16 forks 2 workers",
    }


def spawn(args: list[str], deadline: float) -> tuple[int, float]:
    """Run workload.py in its own process group, killed whole past the deadline.

    Returns (exit status, clock reading just before the spawn).
    """
    env = {**os.environ, **CHILD_ENV}
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic())), t_spawn
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Set-up probes plus the measured child; returns its result plus setup_s."""
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    result_file = workdir / "result.json"
    try:
        setup = []
        if not trace:
            for i in range(SETUP_PROBES + 1):
                probe = [*common, "--setup-only", "--result", str(result_file)]
                rc, t_spawn = spawn(probe, deadline)
                if rc != 0:
                    raise RuntimeError(f"set-up probe exited with {rc}")
                if i:
                    probe_result = json.loads(result_file.read_text())
                    setup.append((probe_result["setup_end"] - t_spawn, probe_result["setup_scale"]))
        args = [*common, "--seconds", str(seconds), "--trace", str(trace), "--result", str(result_file)]
        rc, _ = spawn(args, deadline)
        if rc != 0:
            raise RuntimeError(f"workload process exited with {rc}")
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup
    return result


def summarize(name: str, seed: int, trace: int, result: dict) -> tuple[dict, dict]:
    """(final JSON object, detail block) for one workload."""
    phases = [result["untraced"]] + ([result["traced"]] if trace else [])
    rounds = [r for phase in phases for r in phase["rounds"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    if trace:
        values = result["layers"]
        samples = {"rounds_traced": len(result["traced"]["rounds"])}
        as_measured = None
    else:
        values = dict(result["metrics"])
        samples = values.pop("samples")
        as_measured = values.pop("as_measured")
        values["setup_s"] = statistics.median(raw * scale for raw, scale in result["setup_s"])
        as_measured["setup_s"] = statistics.median(raw for raw, _ in result["setup_s"])
        samples["setup_s"] = len(result["setup_s"])
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "samples": samples,
        "failed_ratio": failed / attempted,
        "as_measured": as_measured,
        "problems": sorted({p for r in rounds for p in r["problems"]}),
        "environment": environment(result["numpy"]),
    }
    if trace:
        detail["spans_file"] = result["spans_file"]
        detail["spans"] = result["spans"]
    return out, detail


def print_report(out: dict, detail: dict) -> None:
    for name, m in out["metrics"].items():
        n = detail["samples"].get(name)
        note = f"  (n={n})" if n else ""
        print(f"{detail['workload']:<10} {name:<30} {m['value']:.6g} {m['unit']}{note}")
    for name, value in (detail["as_measured"] or {}).items():
        print(f"{detail['workload']:<10} {name + ' (as measured)':<30} {value:.6g}")
    print(
        f"{detail['workload']:<10} {'failed_ratio':<30} {detail['failed_ratio']:.6g}"
        f"  ({out['failed']} of {out['attempted']} operations)"
    )
    print("detail: " + json.dumps(detail))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crystalsurf" / "__init__.py").is_file():
        print("error: src/crystalsurf not found; run from a crystalsurf checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    started = time.monotonic()
    outs = {}
    for name in names:
        deadline = started + TIME_LIMIT_S * (len(outs) + 1)
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            out, detail = summarize(name, args.seed, args.trace, result)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 2
        print_report(out, detail)
        outs[name] = out
    final = outs[names[0]] if len(names) == 1 else outs
    print(json.dumps(final))
    return 0 if all(o["correct"] for o in outs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

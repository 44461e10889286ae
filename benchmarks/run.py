"""groupoidlab benchmark: CLI workloads measured end to end, plus a per-layer trace.

    python3 benchmarks/run.py --workload bracket --seed 0 --seconds 60 --trace 0

``--trace 0`` runs each item of the workload as its own
``groupoidlab <command> --config <file>`` process, one after another (a
closed loop with a single client), in passes over all items until
``--seconds`` have elapsed; it reports the end-to-end metrics.  The gated pass
times are scaled to a nominal machine speed by a probe timed between the items
(``calibration.py``), which removes the host's slow drift.  Set-up time is
measured separately in fresh processes that import ``groupoidlab.cli`` and
load every config of the workload.  ``--trace 1`` calls ``cli.main``
in-process on the same items, alternating untraced and traced passes, and
reports the per-layer metrics of ``tracing.py``.

Every item run is checked (``checks.py``).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record, with the environment, goes to
``.bench_out/results/``.  Run from the root of a groupoidlab checkout.
"""

from __future__ import annotations

import argparse
import os
import sys

NPROC = len(os.sched_getaffinity(0))
# BLAS and OpenMP may use every core, but idle OpenBLAS workers sleep at once:
# by default each process spends ~0.13 s of CPU at start-up in a spinning
# worker, which turns into wall time whenever another process holds the
# second core and made the many short cli processes swing by ~25 %.
THREAD_ENV = {
    **{name: str(NPROC) for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    "OPENBLAS_THREAD_TIMEOUT": "4",
}
# before anything imports numpy, so the in-process trace run gets it too
os.environ.update(THREAD_ENV)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import Calibration  # noqa: E402
from checks import check_item  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, build  # noqa: E402

REFERENCE = HERE / "reference.json"
SETUP_PROBES = 2  # before each pass and after the last
ITEM_TIMEOUT_S = 60.0
COVERAGE_TOLERANCE = 0.1  # the layer self times must account for the traced wall time
# Printed and stored with the end-to-end metrics but not gated: the raw pass
# times, whose host drift the *_norm_s metrics remove.
RAW_METRICS = {"wall_s": "s", "cpu_s": "s"}
DEADLINE_S = 150.0  # no pass is planned to end more than half a pass later, so a run ends within 180 s

SETUP_CODE = """\
import sys
from groupoidlab.cli import load_config
from groupoidlab.errors import ConfigError
for path in sys.argv[1:]:
    try:
        load_config(path)
    except ConfigError:
        pass
"""
ITEM_CODE = "import sys\nfrom groupoidlab.cli import main\nsys.exit(main())\n"


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.exists():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "groupoidlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, size: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "machine": platform.machine(),
        "seed": seed,
        "size": size,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# one item as a process
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)  # carries THREAD_ENV
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], stderr_path: Path, timeout: float) -> dict:
    """Run one process to completion; wall, CPU and peak RSS come from ``wait4``."""
    with stderr_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=_child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no process behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# workload set-up
# ---------------------------------------------------------------------------

class Workload:
    """Generated configs and items of one workload, in a private work directory."""

    def __init__(self, name: str, seed: int, size: str, work: Path):
        self.name, self.seed, self.size, self.work = name, seed, size, work
        self.items, configs = build(name, seed, size, ROOT)
        shutil.rmtree(work, ignore_errors=True)
        (work / "configs").mkdir(parents=True)
        self.config_paths = []
        for file_name, doc in configs.items():
            path = work / "configs" / file_name
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            self.config_paths.append(str(path))
        self.reference = {}
        if seed == DEFAULT_SEED and size == "full" and REFERENCE.exists():
            self.reference = json.loads(REFERENCE.read_text())["workloads"].get(name, {})

    def argv(self, item, out_dir: Path) -> list[str]:
        args = [item.command, "--config", str(self.work / "configs" / item.config), "--output", str(out_dir)]
        if item.takes_seed:
            args += ["--seed", str(self.seed)]
        return args


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def setup_probe(wl: Workload) -> float:
    """Wall time of one fresh process that imports the CLI and loads every config."""
    res = run_process([sys.executable, "-c", SETUP_CODE, *wl.config_paths], wl.work / "setup.err", ITEM_TIMEOUT_S)
    if res["exit"] != 0:
        tail = (wl.work / "setup.err").read_text().strip().splitlines()[-1:]
        raise BenchmarkError(f"set-up process exited {res['exit']}: {tail}")
    return res["wall_s"]


def process_pass(wl: Workload, calibration: Calibration | None = None) -> dict:
    out = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "items": []}
    for item in wl.items:
        if calibration:
            calibration.maybe()
        out_dir = wl.work / "out" / item.name
        shutil.rmtree(out_dir, ignore_errors=True)
        err = wl.work / f"{item.name}.err"
        res = run_process([sys.executable, "-c", ITEM_CODE, *wl.argv(item, out_dir)], err, ITEM_TIMEOUT_S)
        outcome = check_item(item, res["exit"], err.read_text(errors="replace"), out_dir, wl.reference.get(item.name))
        out["wall_s"] += res["wall_s"]
        out["cpu_s"] += res["cpu_s"]
        out["peak_rss_mb"] = max(out["peak_rss_mb"], res["rss_mb"])
        out["items"].append({"item": item.name, **res, "failure": outcome.reason, "crashed": outcome.crashed,
                             "values": outcome.values})
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


def _another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass of the mean length so far ends before ``seconds``
    plus half a pass, so that a run's length is ``seconds`` on average."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 0.5) / done <= min(seconds, DEADLINE_S)


def end_to_end(wl: Workload, seconds: float) -> dict:
    setup_probe(wl)  # warm-up: bytecode and file caches
    calibration = Calibration()
    setup, passes = [], []
    start = time.perf_counter()
    # Set-up probes sit between the passes, so that they sample the whole run
    # and not one burst of machine load.
    while not passes or _another_fits(start, len(passes), seconds):
        setup += [setup_probe(wl) for _ in range(SETUP_PROBES)]
        passes.append(process_pass(wl, calibration))
    setup += [setup_probe(wl) for _ in range(SETUP_PROBES)]
    runs = [r for p in passes for r in p["items"]]
    failed = sum(r["failure"] is not None for r in runs)
    scale = calibration.scale()
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "wall_norm_s": [p["wall_s"] * scale for p in passes],
        "cpu_norm_s": [p["cpu_s"] * scale for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": setup,
        "ok_frac": [1.0 - failed / len(runs)],
    }
    return {"samples": samples, "runs": runs, "passes": len(passes),
            "calibration": {"probe_s": calibration.times, "scale": scale}}


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

def in_process_pass(wl: Workload, tracer=None, pass_no: int = 0) -> dict:
    from groupoidlab import cli

    out = {"wall_s": 0.0, "items": []}
    for item in wl.items:
        out_dir = wl.work / "out" / item.name
        shutil.rmtree(out_dir, ignore_errors=True)
        main = tracer.root(item.name, cli.main, pass_no) if tracer else cli.main
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = main(wl.argv(item, out_dir))
        except Exception:  # the item's crash is its result; record it and go on
            code = 1
            stderr.write(traceback.format_exc())
        wall = time.perf_counter() - start
        outcome = check_item(item, code, stderr.getvalue(), out_dir, wl.reference.get(item.name))
        out["wall_s"] += wall
        out["items"].append({"item": item.name, "exit": code, "wall_s": wall, "failure": outcome.reason,
                             "crashed": outcome.crashed})
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


def traced(wl: Workload, seconds: float, trace_path: Path) -> dict:
    import logging
    import warnings

    from tracing import COUNT_METRICS, Tracer

    sys.path.insert(0, str(ROOT / "src"))
    import groupoidlab.cli  # noqa: F401  (import time is set-up, not part of a pass)

    logging.getLogger("groupoidlab").propagate = False
    logging.getLogger("groupoidlab").addHandler(logging.NullHandler())
    warnings.simplefilter("ignore")

    tracer = Tracer()
    plain, layered, runs = [], [], []

    def one_pass(traced_pass: bool):
        if traced_pass:
            first = len(tracer.spans)
            with tracer.installed():
                p = in_process_pass(wl, tracer, len(layered))
            layered.append(tracer.metrics(first, len(tracer.spans), p["wall_s"]) | {"wall_s": p["wall_s"]})
        else:
            p = in_process_pass(wl)
            plain.append(p["wall_s"])
        runs.extend(p["items"])

    start = time.perf_counter()
    one_pass(False)  # warm-up: first-touch page faults and caches; not a sample
    plain.clear()
    one_pass(True)
    while len(layered) < 2 or _another_fits(start, len(layered) + 1, seconds):
        one_pass(False)
        one_pass(True)  # at least two traced passes, to see whether the counts repeat
    tracer.write(trace_path)

    counts = [{k: m[k] for k in COUNT_METRICS} for m in layered]
    samples = {k: [m[k] for m in layered] for k in layered[0] if k not in COUNT_METRICS and k != "wall_s"}
    for k in COUNT_METRICS:
        samples[k] = [counts[0][k]]
    samples["trace.overhead_s"] = [
        statistics.median(m["wall_s"] for m in layered) - statistics.median(plain)
    ]
    return {
        "samples": samples,
        "runs": runs,
        "passes": {"untraced": len(plain), "traced": len(layered)},
        "pass_walls_s": {"untraced": plain, "traced": [m["wall_s"] for m in layered]},
        "counts_repeat": all(c == counts[0] for c in counts),
        "coverage_ok": all(abs(m["trace.coverage"] - 1.0) <= COVERAGE_TOLERANCE for m in layered),
        "counts": counts[0],
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_table(workload: str, seed: int, result: dict, units: dict):
    runs = result["runs"]
    failed = [r for r in runs if r["failure"] is not None]
    print(f"workload {workload}  seed {seed}  passes {result['passes']}  item runs {len(runs)}  "
          f"failed {len(failed)}  failed_frac {len(failed) / len(runs):.4f}")
    print(f"  {'metric':30s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
    for name, unit in units.items():
        s = summarize(result["samples"][name])
        print(f"  {name:30s} {unit:6s} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {s['n']:3d}")
    for name in sorted({r["item"] for r in failed}):
        reason = next(r["failure"] for r in failed if r["item"] == name)
        print(f"  FAILED {name}: {reason}")


def record_reference(wl: Workload):
    """Store the default-seed result values of every item that passed its checks."""
    wl.reference = {}
    p = process_pass(wl)
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
    doc["workloads"][wl.name] = {r["item"]: r["values"] for r in p["items"] if r["failure"] is None and r["values"]}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(doc['workloads'][wl.name])} item(s) of {wl.name} in {REFERENCE.name}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_process, which stops its child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="smoke: smallest grids, for smoke.py")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this default-seed run's result values in reference.json")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/groupoidlab/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"benchmark: run from a groupoidlab checkout; missing {missing}", file=sys.stderr)
        return 2

    results_dir = ROOT / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    wl = Workload(args.workload, args.seed, args.size, ROOT / ".bench_out" / "work" / f"{stem}-{os.getpid()}")
    try:
        if args.record_reference:
            if args.seed != DEFAULT_SEED or args.size != "full":
                parser.error("--record-reference needs the default seed and full size")
            record_reference(wl)
            return 0
        if args.trace:
            result = traced(wl, args.seconds, results_dir / f"{stem}.trace.jsonl")
        else:
            result = end_to_end(wl, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(wl.work, ignore_errors=True)

    # BENCHMARK.json names the metrics each mode reports, with their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    shown = units if args.trace else RAW_METRICS | units
    runs = result["runs"]
    failed = sum(r["failure"] is not None for r in runs)
    wrong = [r for r in runs if r["failure"] is not None and not r["crashed"]]
    correct = not wrong and result.get("counts_repeat", True) and result.get("coverage_ok", True)
    metrics = {name: {"value": summarize(result["samples"][name])["median"], "unit": unit}
               for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "environment": environment(args.seed, args.size),
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "metrics": {name: {"unit": unit, **summarize(result["samples"][name]), "samples": result["samples"][name]}
                    for name, unit in shown.items()},
        **{k: v for k, v in result.items() if k not in ("samples", "runs")},
        "items": [{k: v for k, v in r.items() if k != "values"} for r in runs],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print_table(args.workload, args.seed, result, shown)
    if args.trace:
        print(f"  counts repeat exactly across traced passes: {result['counts_repeat']}")
        print(f"  trace.coverage within {COVERAGE_TOLERANCE:.0%} of 1 in every traced pass: {result['coverage_ok']}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

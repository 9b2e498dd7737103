"""omega-pricer benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The library is imported from ``src/`` next to
this directory and nowhere else; without it the run exits with code 2 and
prints no result.  BLAS is pinned to one thread and no threads or workers
are started; the only child processes are the fresh interpreters that time
set-up, run one at a time and waited for.

A run repeats passes over the workload's operations until the next pass
would overrun ``--seconds`` (at least one pass), checks every output, and
prints a report line (environment, sample counts, failures) and then the
result line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones below; with ``--trace 1``
an untraced reference pass is followed by traced passes, whose outputs must
be bit-identical to it, and the metrics are the per-layer ones of
``tracer.PER_LAYER``.
"""

import os

# pin BLAS before numpy is imported, here and in set-up children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {
    "wall_s": "s",
    "price_p50_s": "s",
    "price_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 3
EXIT_NO_LIBRARY = 2


class NoLibrary(RuntimeError):
    pass


def import_library():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "omega_pricer" / "__init__.py").is_file():
        raise NoLibrary(f"no omega_pricer package under {SRC}")
    sys.path.insert(0, str(SRC))
    api = importlib.import_module("omega_pricer")
    importlib.import_module("omega_pricer.cli")
    if Path(api.__file__).resolve().parent.parent != SRC:
        raise NoLibrary(f"omega_pricer imported from {api.__file__}, not {SRC}")
    return api


def setup(workload: str, seed: int):
    """Import, generate inputs and warm up: what setup_s times."""
    api = import_library()
    wl = workloads.BUILDERS[workload](api, seed, WORK)
    workloads.warm_up(api)
    return api, wl


def time_setups(workload: str, seed: int) -> list:
    """Wall time of fresh interpreters running set-up, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(ops, tracer=None) -> list:
    """[(op, output or None, problems, seconds)] for one closed-loop pass."""
    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            raw = tracer.op(op.id, op.run) if tracer is not None else op.run()
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            raw, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        records.append((op, raw, err, elapsed))
    return [_finish(op, raw, err, elapsed) for op, raw, err, elapsed in records]


def _finish(op, raw, err, elapsed):
    """Collect and check one output, outside the timed region."""
    if err is not None:
        return op, None, [err], elapsed
    try:
        out = op.collect(raw)
        problems = op.check(out)
    except Exception as exc:
        return op, None, [f"check raised {type(exc).__name__}: {exc}"], elapsed
    return op, out, problems, elapsed


def run_passes(ops, seconds: float, start: float, tracer=None) -> list:
    """Passes until the next one would end after start + seconds."""
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append((run_pass(ops, tracer), time.perf_counter() - t0))
        used = time.perf_counter() - start
        per_pass = statistics.mean(w for _, w in passes)
        if used + per_pass > seconds:
            return passes


def pass_wall(records) -> float:
    return sum(elapsed for *_, elapsed in records)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(api) -> dict:
    import numpy
    import scipy
    src_lines = {p.stem: sum(1 for _ in p.open())
                 for p in sorted((SRC / "omega_pricer").glob("*.py"))}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": _blas_threads(),
        "blas_env": os.environ["OPENBLAS_NUM_THREADS"],
        "library": getattr(api, "__version__", None),
        "src_lines": src_lines,
        "src_lines_total": sum(src_lines.values()),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _quantile(values, q: float) -> float:
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def _untraced(wl, workload: str, seed: int, seconds: float, report: dict):
    setups = time_setups(workload, seed)
    passes = run_passes(wl.ops, seconds, time.perf_counter())
    walls = [pass_wall(records) for records, _ in passes]
    lat = [e for records, _ in passes for *_, e in records]
    report["samples"] = {"passes": len(passes), "operations": len(lat),
                         "ops_per_pass": len(wl.ops), "setups": len(setups)}
    report["setup_s_all"] = setups
    report["wall_s_all"] = walls
    metrics = {
        "wall_s": statistics.median(walls),
        "price_p50_s": statistics.median(lat),
        "price_p90_s": _quantile(lat, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, metrics, True


def _traced(wl, seconds: float, report: dict):
    """An untraced reference pass, then traced passes that must match it."""
    start = time.perf_counter()
    reference = run_pass(wl.ops)
    ref_wall = pass_wall(reference)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(wl.ops, seconds, start, tracer)
    finally:
        tracer.uninstall()

    def prints(records):
        return [workloads.fingerprint(out) if out is not None else None
                for _, out, _, _ in records]
    identical = all(prints(records) == prints(reference) for records, _ in traced)
    traced_wall = statistics.median(pass_wall(records) for records, _ in traced)
    accounting = tracer.accounting_error()
    report["samples"] = {"untraced_passes": 1, "traced_passes": len(traced),
                         "ops_per_pass": len(wl.ops)}
    report["trace"] = {"outputs_identical": identical, "accounting_error_s": accounting,
                       "absent": tracer.absent, "untraced_wall_s": ref_wall,
                       "traced_wall_s": traced_wall}
    metrics = tracer.metrics(len(traced), traced_wall / ref_wall - 1.0)
    return [(reference, ref_wall)] + traced, metrics, identical and accounting < 1e-6


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """(report, result) of one run."""
    api, wl = setup(workload, seed)
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "env": environment(api)}
    try:
        if trace:
            passes, metrics, consistent = _traced(wl, seconds, report)
        else:
            passes, metrics, consistent = _untraced(wl, workload, seed, seconds, report)
    finally:
        wl.cleanup()
    attempted = sum(len(records) for records, _ in passes)
    failed = [f"{op.id}: {'; '.join(problems)}"
              for records, _ in passes for op, _, problems, _ in records if problems]
    report["fail_frac"] = len(failed) / attempted
    report["failures"] = failed[:20]
    report["latency_by_op_s"] = {
        op.id: statistics.median(e for records, _ in passes
                                 for o, _, _, e in records if o is op)
        for op in wl.ops[:40]}
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": not failed and consistent, "attempted": attempted,
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="run set-up in this fresh process and exit")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            import selftest
            return selftest.main(measure, ROOT)
        if args.workload not in workloads.BUILDERS:
            ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        if args.setup_only:
            setup(args.workload, args.seed)
            return 0
        report, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except NoLibrary as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

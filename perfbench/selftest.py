"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

Runs the tiny ``selftest`` workload untraced and traced and checks that
every metric named in BENCHMARK.json is emitted with its unit, that the
deliberately failing check is counted in ``failed`` and ``fail_frac``, that
the tracer leaves outputs bit-identical, that self times add up to each
operation's wall time, and that a traced name the library lacks reads as
absent instead of crashing the run.  Exits 0 when all hold.
"""

import json
import math

import tracer

MISSING = ("omega_pricer.scale", "_no_such_layer", "scale.none")


def _metric_problems(result: dict, declared: list) -> list:
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        if name in want and entry["unit"] != want[name]:
            problems.append(f"{name}: unit {entry['unit']!r}, declared {want[name]!r}")
        if not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
            problems.append(f"{name}: value {entry['value']!r} is not a finite number")
    return problems


def main(measure, root) -> int:
    """measure is run.measure, root the directory holding BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []

    report, result = measure("selftest", 0, 0.0, trace=False)
    problems += _metric_problems(result, spec["end_to_end"])
    if any(result["metrics"][m["name"]]["value"] <= 0.0 for m in spec["end_to_end"]):
        problems.append("an end-to-end metric read zero or less")
    if result["failed"] != 1 or result["correct"] or not report["fail_frac"] > 0.0:
        problems.append(f"deliberate failure not counted: failed={result['failed']}, "
                        f"fail_frac={report['fail_frac']}")
    elif not report["failures"][0].startswith("deliberate_failure"):
        problems.append(f"wrong operation failed: {report['failures']}")

    tracer.SPANS = tracer.SPANS + (MISSING,)
    try:
        report, result = measure("selftest", 0, 0.0, trace=True)
    finally:
        tracer.SPANS = tracer.SPANS[:-1]
    problems += _metric_problems(result, spec["per_layer"])
    info = report["trace"]
    if not info["outputs_identical"]:
        problems.append("traced outputs differ from the untraced pass")
    if not info["accounting_error_s"] < 1e-6:
        problems.append(f"self times miss the wall time by {info['accounting_error_s']}")
    if info["absent"] != [f"{MISSING[0]}:{MISSING[1]}"]:
        problems.append(f"absent layers reported as {info['absent']}")
    metrics = result["metrics"]
    for name in ("scale.march.nodes", "scale.c_limit.calls", "pricer.calls",
                 "specfun.gauss_2f1.calls", "mc.path_steps", "mc.bermudan.dates",
                 "discount.points", "levy.psi_roots.calls"):
        if not metrics[name]["value"] > 0:
            problems.append(f"{name} is zero on a workload that reaches it")
    if result["failed"] != 2:
        problems.append(f"traced run counted {result['failed']} failures, want 2 "
                        "(the deliberate one in each pass)")

    for line in problems:
        print(f"self-test FAIL: {line}")
    if not problems:
        print("self-test passed")
    return 1 if problems else 0

"""relphase benchmark: closed-loop passes over a workload's operations.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client runs the workload's operations
one after another, each in its own fresh interpreter (``child.py``), and
repeats the pass until ``--seconds`` have gone by.  Every output is checked.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Each metric is printed with its unit and sample count;
the last line of standard output is one JSON object.  Everything measured,
spans included, goes to ``.bench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "fixtures" / "oracle.json"
REFERENCE = HERE / "reference.json"
CHILD = HERE / "child.py"
RESULTS = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every child is stopped by this many seconds after the run starts, so
# that a run always ends within 180 s; ``--workload all`` gives each
# workload a window of this length.
RUN_LIMIT_S = 170.0
WARM_LIMIT_S = 30.0
MB = 1e6


def spawn(op, seed, trace, stop_at, env=False):
    """Run one operation in a fresh interpreter; return the child's report."""
    spec = dict(op.spec, seed=seed, trace=trace, env=env, src=str(SRC))
    path = os.environ.get("PYTHONPATH")
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    timeout = max(1.0, stop_at - time.perf_counter())
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": f"stopped after {timeout:.0f} s"}
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return {"exit": done.returncode, "error": done.stderr[-4000:]}
    return json.loads(lines[-1])


def run_pass(ops, seed, trace, stop_at):
    start = time.perf_counter()
    reports = [spawn(op, seed, trace, stop_at) for op in ops]
    return {"traced": trace, "pass_s": time.perf_counter() - start, "reports": reports}


def check_pass(ops, run, first_output, oracle, reference):
    """Attach a list of problems to every report; an operation fails on a
    non-zero exit, an exception, a failed output check, or an output that
    differs from the first one seen for the same operation and seed."""
    earlier = {}
    for op, report in zip(ops, run["reports"]):
        problems = report.setdefault("problems", [])
        if report.get("exit") != 0 or report.get("error"):
            problems.append(f"exit {report.get('exit')}: {report.get('error')}")
            continue
        try:
            values, found = check_output(op, report["output"], earlier, oracle, reference)
            earlier[op.name] = values
            problems.extend(found)
        except Exception as exc:  # any malformed output is a failed check, not a crash
            problems.append(f"unreadable output: {exc!r}")
        if report["output"] != first_output.setdefault(op.name, report["output"]):
            problems.append("output differs from the first run of this operation")


def layer_times(spans):
    """Per-layer self time and entry count of one traced operation.

    A span's self time is its duration minus its children's.  A span named
    after a layer alone is that layer's module import and is not a call.
    Returns the per-layer sums and the problems found: a child span
    reaching outside its parent, or self times that do not add up to the
    operation's traced time.
    """
    problems = []
    self_s = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent is None:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        if start < p_start or end > p_end:
            problems.append(f"span {name} reaches outside its parent {spans[parent][0]}")
        self_s[parent] -= end - start
    traced_s = spans[0][2] - spans[0][1]
    if abs(sum(self_s) - traced_s) > 1e-9 * max(1.0, traced_s):
        problems.append(f"self times sum to {sum(self_s)!r}, traced time is {traced_s!r}")
    times = {"op": 0.0, "import": 0.0, **{layer: 0.0 for layer in LAYERS}}
    calls = dict.fromkeys(LAYERS, 0)
    for (name, *_), own in zip(spans, self_s):
        layer, _, function = name.partition(".")
        times[layer] += own
        if function:
            calls[layer] += 1
    return times, calls, problems


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(run):
    """Per-layer metrics of one traced pass."""
    times = {}
    calls = dict.fromkeys(LAYERS, 0)
    counts = {}
    modules = 0
    for report in run["reports"]:
        if "spans" not in report:
            continue
        op_times, op_calls, problems = layer_times(report["spans"])
        report["problems"].extend(problems)
        for layer, value in op_times.items():
            times[layer] = times.get(layer, 0.0) + value
        for layer, value in op_calls.items():
            calls[layer] += value
        for key, value in report["counts"].items():
            if key.endswith("out_bytes"):
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        modules = max(modules, report["import_modules"])
    metrics = {"import.self_s": times.get("import", 0.0), "import.modules": modules}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = times.get(layer, 0.0)
    metrics.update({
        "blocks.out_mb": counts.get("blocks.out_bytes", 0) / MB,
        "blocks.fill_ratio": ratio(counts.get("blocks.reachable", 0), counts.get("blocks.stored", 0)),
        "factorize.to_blocks_per_report": ratio(counts.get("factorize.to_blocks_in_report", 0),
                                                counts.get("factorize.reports", 0)),
        "twirl.rank1_updates": counts.get("twirl.rank1_updates", 0),
        "twirl.out_mb": counts.get("twirl.out_bytes", 0) / MB,
        "twirl.fill_ratio": ratio(counts.get("twirl.nonzero", 0), counts.get("twirl.entries", 0)),
        "lattice.out_mb": counts.get("lattice.out_bytes", 0) / MB,
        "lattice.reduced_ratio": ratio(counts.get("lattice.reduced_out_bytes", 0),
                                       counts.get("lattice.reduced_in_bytes", 0)),
        "trace.unattributed_s": times.get("op", 0.0),
    })
    return metrics


def median(values):
    return statistics.median(values) if values else 0.0


def high_percentile(values):
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it, or None while that is not above the median."""
    rank = len(values) - 10
    if rank <= len(values) / 2:
        return None
    return 100 * rank // len(values), sorted(values)[rank - 1]


def measure(workload, seed, seconds, trace, stop_at, oracle, reference):
    ops = WORKLOADS[workload]
    deadline = time.perf_counter() + seconds
    runs = []
    while True:
        runs.append(run_pass(ops, seed, False, stop_at))
        if trace:
            runs.append(run_pass(ops, seed, True, stop_at))
        if time.perf_counter() >= deadline:
            break

    first_output = {}
    for run in runs:
        check_pass(ops, run, first_output, oracle, reference)
    plain = [run for run in runs if not run["traced"]]
    traced = [run for run in runs if run["traced"]]
    per_pass = [layer_metrics(run) for run in traced]  # adds span problems to the reports
    reports = [report for run in runs for report in run["reports"]]
    failed = sum(1 for report in reports if report["problems"])
    if trace:
        samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
        samples["trace.overhead_s"] = [
            median([run["pass_s"] for run in traced]) - median([run["pass_s"] for run in plain])
        ]
        listed = SPEC["per_layer"]
    else:
        ok = [[r for r in run["reports"] if "compute_s" in r] for run in plain]
        samples = {
            "setup_s": [r["import_s"] for rs in ok for r in rs],
            "pass_s": [run["pass_s"] for run in plain],
            "compute_s": [sum(r["compute_s"] for r in rs) for rs in ok],
            "peak_rss_mb": [max(r["maxrss_kb"] * 1024 / MB for r in rs) for rs in ok if rs],
            "ok_ratio": [(len(reports) - failed) / len(reports)],
        }
        listed = SPEC["end_to_end"]
    metrics = {name: median(values) for name, values in samples.items()}
    counts = {name: len(values) for name, values in samples.items()}
    counts.update({"ok_ratio": len(reports), "trace.overhead_s": len(traced)})
    table = []
    for entry in listed:
        name = entry["name"]
        line = f"{workload:>10} {name:<32} {metrics[name]:>14.6g} {entry['unit']:<6} n={counts[name]}"
        high = high_percentile(samples[name])
        if high:
            line += f"  p{high[0]}={high[1]:.6g}"
        table.append(line)
    if not trace:
        fail_ratio = failed / len(reports)
        table.append(f"{workload:>10} {'fail_ratio':<32} {fail_ratio:>14.6g} {'1':<6} n={len(reports)}")
    result = {
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in listed},
    }
    return result, table, runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    missing = [p for p in (SRC / "relphase" / "__init__.py", ORACLE, REFERENCE) if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    oracle = json.loads(ORACLE.read_text())
    reference = json.loads(REFERENCE.read_text())

    # Compiles the package's bytecode before anything is timed and records
    # the environment every result carries.
    warm = spawn(WORKLOADS["desk"][1], args.seed, False, started + WARM_LIMIT_S, env=True)
    if warm.get("exit") != 0:
        print(f"benchmark: the program does not run: {warm.get('error')}", file=sys.stderr)
        return 2
    env = {"seed": args.seed, **warm["env"]}
    print("# env " + json.dumps(env, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for index, name in enumerate(names):
        stop_at = started + RUN_LIMIT_S * (index + 1)
        result, table, runs = measure(name, args.seed, args.seconds, args.trace, stop_at,
                                      oracle, reference)
        print("\n".join(table))
        for run in runs:
            for op, report in zip(WORKLOADS[name], run["reports"]):
                for problem in report["problems"]:
                    print(f"# FAIL {op.name}: {problem}")
        results[name] = result
        RESULTS.mkdir(exist_ok=True)
        record = {"workload": name, "seconds": args.seconds, "trace": args.trace, "env": env,
                  "result": result, "runs": runs}
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record) + "\n")

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

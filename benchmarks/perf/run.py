"""Run one workload of ``BENCHMARK.json`` in this process.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload is repeated (each repetition rebuilding
method and device from the seed) until ``--seconds`` have passed, after
one discarded warm-up repetition that is also the output check, and
the end-to-end metrics are printed.  With ``--trace 1`` the per-layer
metrics are printed instead: prices from untraced isolated loops, shape
from one pass through benchmark-owned timing proxies.  The last line of
standard output is the result object the benchmark contract names;
the lines above it are for people.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def parse_arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20, for the smoke test")
    return parser.parse_args(argv)


def run(arguments: argparse.Namespace) -> dict:
    """Run the workload; returns ``{"result": ..., "detail": ...}``."""
    from benchmarks.perf import harness, lib_bench, serve_bench, sweep_bench

    contract = harness.load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    if arguments.workload not in names:
        raise SystemExit(f"unknown workload {arguments.workload!r}; one of {names}")
    seconds = (
        contract["run_seconds"] if arguments.seconds is None else arguments.seconds
    )
    host = harness.host_state()
    family = next(
        module for module in (lib_bench, serve_bench, sweep_bench)
        if arguments.workload in module.WORKLOADS
    )
    runner = family.run_traced if arguments.trace else family.run_end_to_end
    report = runner(arguments.workload, arguments.seed, seconds, arguments.smoke)

    section = "per_layer" if arguments.trace else "end_to_end"
    wanted = harness.declared(contract, section)
    undeclared = sorted(set(report.samples) - set(wanted))
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {undeclared}")
    missing = sorted(set(wanted) - set(report.samples))
    if missing and not arguments.trace:
        raise SystemExit(f"end-to-end metrics not measured: {missing}")

    metrics, detail = {}, {}
    for name, entry in wanted.items():
        # A layer this workload never enters did no work and took no time.
        samples = report.samples.get(name, [0.0])
        value = statistics.median(samples)
        metrics[name] = {"value": value, "unit": entry["unit"]}
        detail[name] = {
            "min": min(samples), "max": max(samples), "n": len(samples),
            "noisy": is_noisy(entry, samples, value, host),
        }
        if len(samples) >= 4:
            quartiles = statistics.quantiles(samples, n=4)
            detail[name].update(q1=quartiles[0], q3=quartiles[2])
    return {
        "result": {
            "correct": not report.problems,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": metrics,
        },
        "detail": detail,
        "problems": report.problems,
        "notes": report.notes,
        "host": host,
    }


def is_noisy(entry: dict, samples, value: float, host: dict) -> bool:
    """The noise guard: a wall-clock metric measured on a loaded host, or
    one whose repetitions spread over more than twice its bound."""
    if len(samples) < 2 or "bound" not in entry:
        return False
    if host["load_1min"] > host["nproc"]:
        return True
    return value > 0 and (max(samples) - min(samples)) / value > 2 * entry["bound"]


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.perf.harness import DETAIL_PREFIX

    arguments = parse_arguments(argv)
    outcome = run(arguments)
    for note in outcome["notes"]:
        print(note)
    for name, metric in outcome["result"]["metrics"].items():
        spread = outcome["detail"][name]
        flag = "  noisy" if spread["noisy"] else ""
        print(
            f"{name:<44}{metric['value']:>16.6g} {metric['unit']:<10}"
            f"min {spread['min']:.6g} max {spread['max']:.6g} "
            f"n {spread['n']}{flag}"
        )
    for problem in outcome["problems"]:
        print(f"INCORRECT: {problem}")
    print(DETAIL_PREFIX + json.dumps(
        {"detail": outcome["detail"], "host": outcome["host"],
         "problems": outcome["problems"]}
    ))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

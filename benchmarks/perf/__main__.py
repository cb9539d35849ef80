"""``python -m benchmarks.perf run|compare`` — the whole set, and two sets.

``run`` starts ``run.py`` once per workload, each in a fresh process (so
``peak_rss_mib`` is the workload's own), prints every metric with its
unit, and with ``--out`` records the set as JSON together with the git
commit, python version, ``nproc`` and load average.  It exits 1 if any
workload's outputs were wrong.  ``compare`` judges a second recorded
set against a first with the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys

from benchmarks.perf import harness
from benchmarks.perf.compare import compare
from benchmarks.perf.harness import DETAIL_PREFIX, PERF_DIR, ROOT


def parse_arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, print every metric")
    run.add_argument("--workload", action="append",
                     help="repeatable; default: every workload")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--seconds", type=float, default=None,
                     help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--trace", action="store_true",
                     help="also make the traced run (per-layer metrics)")
    run.add_argument("--smoke", action="store_true", help="sizes / 20")
    run.add_argument("--out", help="record the set as JSON here")
    judge = commands.add_parser("compare", help="judge B.json against A.json")
    judge.add_argument("first")
    judge.add_argument("second")
    return parser.parse_args(argv)


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_workload(arguments, workload: str, trace: int):
    """One ``run.py`` process; returns ``(result, detail)`` or ``None``."""
    command = [
        sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
        "--seed", str(arguments.seed), "--trace", str(trace),
    ]
    if arguments.seconds is not None:
        command += ["--seconds", str(arguments.seconds)]
    if arguments.smoke:
        command.append("--smoke")
    finished = subprocess.run(command, capture_output=True, text=True)
    lines = finished.stdout.splitlines()
    if finished.returncode != 0 or len(lines) < 2:
        print(finished.stdout + finished.stderr, file=sys.stderr)
        return None
    for line in lines[:-2]:
        print("  " + line)
    return json.loads(lines[-1]), json.loads(lines[-2][len(DETAIL_PREFIX):])


def merged(result: dict, detail: dict) -> dict:
    """Each metric's value and unit beside its min, max, n and noise flag."""
    return {
        name: {**metric, **detail["detail"][name]}
        for name, metric in result["metrics"].items()
    }


def command_run(arguments) -> int:
    contract = harness.load_contract()
    workloads = arguments.workload or [
        entry["name"] for entry in contract["workloads"]
    ]
    recorded = {
        "environment": {
            "git_commit": git_commit(),
            "python": platform.python_version(),
            **harness.host_state(),
        },
        "seed": arguments.seed,
        "workloads": {},
    }
    wrong = False
    for workload in workloads:
        entry = {}
        for trace in (0, 1) if arguments.trace else (0,):
            print(f"== {workload}" + (" (traced)" if trace else ""))
            outcome = run_workload(arguments, workload, trace)
            if outcome is None:
                wrong = True
                continue
            result, detail = outcome
            wrong |= not result["correct"]
            entry["per_layer" if trace else "end_to_end"] = merged(result, detail)
            entry.setdefault("runs", []).append({
                "trace": trace,
                **{key: result[key] for key in ("correct", "attempted", "failed")},
                "problems": detail["problems"],
                "host": detail["host"],
            })
        recorded["workloads"][workload] = entry
    if arguments.out:
        with open(arguments.out, "w") as handle:
            json.dump(recorded, handle, indent=1)
    return 1 if wrong else 0


def command_compare(arguments) -> int:
    with open(arguments.first) as first, open(arguments.second) as second:
        lines, code = compare(
            harness.load_contract(), json.load(first), json.load(second)
        )
    print("\n".join(lines))
    return code


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    if arguments.command == "run":
        return command_run(arguments)
    return command_compare(arguments)


if __name__ == "__main__":
    sys.exit(main())

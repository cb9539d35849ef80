"""Compare two recorded sets of runs (``python -m benchmarks.perf compare``).

Per workload and end-to-end metric: both medians, how much worse the
second is (as a share of the first, positive = worse), the metric's
bound and a verdict.  Simulated statistics and counts repeat exactly
under a seed, so between two sets of one seed they compare with ``==``;
their unit says which metrics those are.
"""

from __future__ import annotations

from typing import List, Tuple

#: Units of metrics the modelled device or a counter produces: the same
#: seed gives the same value, bit for bit.  Every other unit is host time
#: (or host memory) and carries noise.
EXACT_UNITS = frozenset({"ratio", "count", "sim_units"})

OK, WORSE, UNRESOLVED, DIFFERENT = "ok", "worse", "unresolved", "different"


def spread(metric: dict) -> float:
    """Quartile distance over the repetitions, as a share of the median
    (the whole range when there are too few repetitions for quartiles)."""
    if not metric["value"]:
        return 0.0
    if "q1" in metric:
        return (metric["q3"] - metric["q1"]) / abs(metric["value"])
    return (metric["max"] - metric["min"]) / abs(metric["value"])


def worsening(first: dict, second: dict, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second["value"] - first["value"]) / abs(first["value"])
    return change if better == "lower" else -change


def entirely_better(first: dict, second: dict, better: str) -> bool:
    if better == "lower":
        return second["max"] < first["min"]
    return second["min"] > first["max"]


def judge(entry: dict, first: dict, second: dict, same_seed: bool) -> Tuple[str, float]:
    """``(verdict, worsening)`` for one metric on one workload."""
    if entry["unit"] in EXACT_UNITS:
        if not same_seed:
            return OK, 0.0
        return (OK if first["value"] == second["value"] else DIFFERENT), 0.0
    worse_by = worsening(first, second, entry["better"])
    bound = entry["bound"]
    if max(spread(first), spread(second)) > bound:
        # Too noisy to call unchanged: only a clean win counts.
        if entirely_better(first, second, entry["better"]):
            return OK, worse_by
        return UNRESOLVED, worse_by
    return (OK if worse_by <= bound else WORSE), worse_by


def compare(contract: dict, first: dict, second: dict) -> Tuple[List[str], int]:
    """Lines of the comparison table and the process exit code."""
    same_seed = first["seed"] == second["seed"]
    lines = [
        f"{'workload':<30}{'metric':<16}{'first':>14}{'second':>14}"
        f"{'worse by':>10}{'bound':>7}  verdict"
    ]
    failed = False
    for workload in (entry["name"] for entry in contract["workloads"]):
        runs = [side["workloads"].get(workload) for side in (first, second)]
        if None in runs:
            continue
        for entry in contract["end_to_end"]:
            a, b = (run["end_to_end"][entry["name"]] for run in runs)
            verdict, worse_by = judge(entry, a, b, same_seed)
            failed |= verdict in (WORSE, DIFFERENT)
            lines.append(
                f"{workload:<30}{entry['name']:<16}{a['value']:>14.6g}"
                f"{b['value']:>14.6g}{worse_by:>+10.1%}{entry['bound']:>7.2f}"
                f"  {verdict}"
            )
        if same_seed and all("per_layer" in run for run in runs):
            line, differs = exact_per_layer(contract, workload, runs)
            lines.append(line)
            failed |= differs
    return lines, 1 if failed else 0


def exact_per_layer(contract, workload, runs) -> Tuple[str, bool]:
    """One line for the exact per-layer metrics of two traced sets, and
    whether any of them differs."""
    names = [
        entry["name"] for entry in contract["per_layer"]
        if entry["unit"] in EXACT_UNITS
    ]
    differing = [
        name for name in names
        if runs[0]["per_layer"][name]["value"] != runs[1]["per_layer"][name]["value"]
    ]
    detail = f" ({', '.join(differing)})" if differing else ""
    return (
        f"{workload:<30}{len(names)} exact per-layer metrics{detail}"
        f"  {DIFFERENT if differing else OK}",
        bool(differing),
    )

#!/usr/bin/env python3
"""Compare two sets of benchmark runs, refusing if their inputs differ.

Usage::

    for seed in 1 2 3; do
        python3 perfbench/run.py --workload hist-live --seed $seed --seconds 10 --trace 0
    done > before.log
    # ... same loop on the other commit > after.log
    python3 perfbench/compare.py before.log after.log

Each run prints an ``inputs:`` line with the SHA-256 of its click log,
index artifact, held-out day and request schedule, and ends with its result
JSON. Runs are paired by workload and seed; if a pair's input hashes differ
(say ``repro.data`` now generates other clicks) the sets measure different
workloads and the comparison is refused with exit code 2. Otherwise each
metric's median, quartile spread (as a share of the median) and change of
median is printed per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

HASH_KEYS = ("clicks_sha256", "index_sha256", "heldout_sha256", "schedule_sha256")


def parse_runs(path: str) -> list[tuple[dict, dict]]:
    """(inputs, result) of every complete run in a log."""
    runs, inputs = [], None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("inputs: "):
                inputs = json.loads(line[len("inputs: ") :])
            elif line.startswith('{"correct"') and inputs is not None:
                runs.append((inputs, json.loads(line)))
                inputs = None
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def compare(before: list, after: list) -> tuple[list[str], list[str]]:
    """(refusals, report lines)."""
    refusals = []
    seen: dict[tuple[str, int], dict] = {}
    for inputs, _ in before:
        seen[(inputs["workload"], inputs["seed"])] = inputs
    for inputs, _ in after:
        key = (inputs["workload"], inputs["seed"])
        other = seen.get(key)
        if other is None:
            continue
        for name in HASH_KEYS:
            if other.get(name) != inputs.get(name):
                refusals.append(f"{key[0]} seed {key[1]}: {name} differs")
    lines = []
    grouped: dict[str, dict[str, list[list[float]]]] = defaultdict(
        lambda: defaultdict(lambda: [[], []])
    )
    for side, runs in enumerate((before, after)):
        for inputs, result in runs:
            for name, metric in result["metrics"].items():
                grouped[inputs["workload"]][name][side].append(metric["value"])
    for workload, metrics in sorted(grouped.items()):
        lines.append(f"{workload}:")
        for name, (old, new) in metrics.items():
            if not old or not new:
                continue
            old_median, new_median = statistics.median(old), statistics.median(new)
            change = (new_median - old_median) / old_median if old_median else 0.0
            lines.append(
                f"  {name:48s} {old_median:12.5g} (spread {spread(old):.3f}, n={len(old)})"
                f" -> {new_median:12.5g} (spread {spread(new):.3f}, n={len(new)})"
                f"  {change:+.1%}"
            )
    return refusals, lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    refusals, lines = compare(parse_runs(argv[0]), parse_runs(argv[1]))
    if refusals:
        print("refusing to compare runs on different inputs:", file=sys.stderr)
        for refusal in refusals:
            print("  " + refusal, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

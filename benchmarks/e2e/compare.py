"""Compare two result sets of ``run.py`` under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (end-to-end metric, workload) pair, B judged against A:

``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better by more than the spread of either set
                (or the spread is too wide but every run of B beats every
                run of A)
``unchanged``   neither
``unresolved``  the run-to-run spread of either set (interquartile distance
                over median) is wider than the bound, or a set lacks the metric

Exit code 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from e2e.stats import median, spread  # noqa: E402


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, change): ``change`` is B's median against A's as a share
    of A's, positive when B is worse."""
    if not a or not b:
        return "unresolved", float("nan")
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (median(b) - median(a)) / median(a)
    noise = max(spread(a), spread(b))
    if noise > bound:
        beats = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if beats else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < 0 and -change > noise:
        return "better", change
    return "unchanged", change


def values(result: dict, workload: str, metric: str) -> list[float]:
    runs = result.get("workloads", {}).get(workload, {}).get("runs", [])
    return [run["metrics"][metric]["value"] for run in runs
            if run.get("correct") and metric in run.get("metrics", {})]


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for entry in spec["end_to_end"]:
            va = values(a, workload, entry["name"])
            vb = values(b, workload, entry["name"])
            outcome, change = verdict(va, vb, entry["better"], entry["bound"])
            rows.append({
                "workload": workload, "metric": entry["name"],
                "unit": entry["unit"], "bound": entry["bound"],
                "a": median(va) if va else None, "spread_a": spread(va),
                "b": median(vb) if vb else None, "spread_b": spread(vb),
                "runs_a": len(va), "runs_b": len(vb),
                "change": change, "verdict": outcome,
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                           "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = compare(a, b, spec)
    print(f"{'workload':<17}{'metric':<20}{'A':>12}{'B':>12} {'unit':<6}"
          f"{'worse by':>9}{'spread A':>9}{'spread B':>9}{'bound':>7}  "
          f"verdict")
    for row in rows:
        a_text = "-" if row["a"] is None else f"{row['a']:.5g}"
        b_text = "-" if row["b"] is None else f"{row['b']:.5g}"
        print(f"{row['workload']:<17}{row['metric']:<20}{a_text:>12}"
              f"{b_text:>12} {row['unit']:<6}{row['change']:>+9.3f}"
              f"{row['spread_a']:>9.3f}{row['spread_b']:>9.3f}"
              f"{row['bound']:>7.2f}  {row['verdict']} "
              f"(n={row['runs_a']},{row['runs_b']})")
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} rows: {len(bad)} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

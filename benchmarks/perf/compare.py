"""Compare two suite results of ``run.py --out``: A (base) vs B.

    python3 benchmarks/perf/compare.py A.json B.json [--same-commit]

Prints one row per workload x end-to-end metric with both medians,
the ratio B/A (A is the base), and a verdict from the bounds in
``BENCHMARK.json``:

* ``regressed``     B is worse than A by more than the bound;
* ``improved``      B is better than A by more than the bound;
* ``within-bound``  neither;
* ``unresolved``    the run-to-run spread of A or B (interquartile
  distance over the median of its ``--repeat`` runs) exceeds the
  bound, so the difference cannot be told from noise.

A rise in failed operations is always ``regressed``.  Per-layer
counts marked ``exact`` are compared exactly and listed when they
differ; with ``--same-commit`` (two runs of one commit at one seed:
the self-agreement check) a differing exact count is an error too.
Exits nonzero on any regression.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: Path) -> dict:
    result = json.loads(path.read_text(encoding="ascii"))
    if result.get("smoke"):
        raise SystemExit(f"error: {path} is a --smoke result; it "
                         "exercises the harness and measures nothing")
    return result


def verdict(metric: dict, a: dict, b: dict) -> str:
    """The verdict on one metric: ``a`` and ``b`` hold the
    ``median`` and ``spread`` of the base and the result under test."""
    base, new = a["median"], b["median"]
    worse = (new - base) / base
    if metric["better"] == "higher":
        worse = -worse
    bound = metric["bound"]
    spreads = [s for s in (a["spread"], b["spread"]) if s is not None]
    if any(s > bound for s in spreads):
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "within-bound"


def _spread(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare two perf-spine suite results")
    parser.add_argument("a", type=Path, help="base result")
    parser.add_argument("b", type=Path, help="result under test")
    parser.add_argument("--same-commit", action="store_true",
                        help="both results are one commit at one "
                             "seed: differing exact counts fail")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="ascii"))
    a, b = load(args.a), load(args.b)
    for key in ("seed", "seconds"):
        if a[key] != b[key]:
            print(f"note: {key} differs ({a[key]} vs {b[key]}); "
                  "exact counts are not comparable")
    comparable = a["seed"] == b["seed"] \
        and a["seconds"] == b["seconds"]
    bad = 0
    print(f"{'workload':<12} {'metric':<15} {'A':>10} {'B':>10} "
          f"{'B/A':>7} {'spreadA':>8} {'spreadB':>8} {'bound':>6}  "
          "verdict")
    for spec in benchmark["workloads"]:
        name = spec["name"]
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in benchmark["end_to_end"]:
            ma = wa["end_to_end"][metric["name"]]
            mb = wb["end_to_end"][metric["name"]]
            word = verdict(metric, ma, mb)
            bad += word == "regressed"
            print(f"{name:<12} {metric['name']:<15} "
                  f"{ma['median']:>10.5g} {mb['median']:>10.5g} "
                  f"{mb['median'] / ma['median']:>7.3f} "
                  f"{_spread(ma['spread']):>8} "
                  f"{_spread(mb['spread']):>8} "
                  f"{metric['bound']:>6}  {word}")
        if wb["failed"] > wa["failed"] or not wb["correct"]:
            bad += 1
            print(f"{name:<12} failed: {wa['failed']} -> "
                  f"{wb['failed']}, correct={wb['correct']}  "
                  "regressed")
        if not comparable:
            continue
        changed = [
            (key, la["value"], wb["per_layer"][key]["value"])
            for key, la in wa["per_layer"].items()
            if la["exact"]
            and la["value"] != wb["per_layer"][key]["value"]]
        if wa["output_sha256"] != wb["output_sha256"]:
            changed.append(("output_sha256", wa["output_sha256"][:12],
                            wb["output_sha256"][:12]))
        for key, before, after in changed:
            print(f"{name:<12} exact {key}: {before} -> {after}")
        if changed and args.same_commit:
            bad += 1
    print("regressions:", bad)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two result sets of perfbench/run.py under the benchmark's bounds.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records run.py appends (``--results``). For every
workload in both sets and every end-to-end metric in BENCHMARK.json it
prints each side's median and quartiles over runs, the ratio change/base,
and a verdict. Below each metric it prints, for each side, the median over
every sample of every run (passes; set-up probes for ``setup_s``), the
highest percentile with at least ten samples above it, and the sample
count. Runs that failed are left out. The verdicts are:

- worse: the change's median is worse than the base's by more than the bound;
- better: better by more than the base's own quartile spread, with the
  quartile ranges apart;
- unresolved: a side's quartile spread is wider than the bound and not
  every run of one side beats every run of the other;
- unchanged: otherwise.

It also says whether the output digests of runs with the same seed match.
It warns when the two sets ran on different hosts or one after the other:
the host's speed drifts by up to a third between sets run minutes apart, so
time verdicts hold only for sets that ran interleaved on one host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import summarize


def load(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs[rec["workload"]].append(rec)
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def pooled_summary(samples: list[float]) -> str:
    s = summarize(samples)
    if not s["n"]:
        return "no samples"
    hi = next((f" {k} {v:.4g}" for k, v in s.items() if k.startswith("p")), "")
    return f"{s['median']:.4g}{hi} n {s['n']}"


def verdict(base: list[float], change: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - bm) / bm
    base_spread = (b3 - b1) / bm
    spread = max(base_spread, (c3 - c1) / cm)
    all_better = all(sign * c < sign * b for c in change for b in base)
    all_worse = all(sign * c > sign * b for c in change for b in base)
    if spread > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    apart = c3 < b1 if lower_is_better else c1 > b3
    if -worse_by > base_spread and apart:
        return "better"
    return "unchanged"


HOST_KEYS = ("nproc", "cpu_model", "numpy", "blas", "blas_threads_detected", "thread_env")


def warnings(base: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[str]:
    """Reasons the two sets' time metrics may not be comparable."""
    a, b = ([r for rs in runs.values() for r in rs] for runs in (base, change))
    out = []
    if len({json.dumps({k: r["host"].get(k) for k in HOST_KEYS}, sort_keys=True) for r in a + b}) > 1:
        out.append("the runs do not share one host record (CPU, numpy, BLAS or thread settings differ)")
    if all("started" in r for r in a + b):
        a_span = (min(r["started"] for r in a), max(r["ended"] for r in a))
        b_span = (min(r["started"] for r in b), max(r["ended"] for r in b))
        if a_span[1] < b_span[0] or b_span[1] < a_span[0]:
            out.append("the two sets ran one after the other, not interleaved; host drift can pass for a change")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json", help="file holding the metrics and bounds")
    args = parser.parse_args(argv)

    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    base, change = load(args.base), load(args.change)
    common = [w for w in base if w in change]
    if not common:
        print("no workload appears in both result sets", file=sys.stderr)
        return 1
    for message in warnings(base, change):
        print(f"warning: {message}")
    print(f"{'workload':16s} {'metric':12s} {'base median [q1, q3] n':>34s} {'change median [q1, q3] n':>34s} "
          f"{'ratio':>7s}  verdict")
    for w in common:
        for m in metrics:
            a, b = ([r["result"]["metrics"][m["name"]]["value"] for r in runs[w] if r["result"]["correct"]]
                    for runs in (base, change))
            if not (a and b):
                print(f"{w:16s} {m['name']:12s} no successful runs on one side")
                continue
            qa, qb = quartiles(a), quartiles(b)
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            side = lambda q, n: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {n}"
            print(f"{w:16s} {m['name']:12s} {side(qa, len(a)):>34s} {side(qb, len(b)):>34s} "
                  f"{qb[1] / qa[1]:7.3f}  {v} (bound {m['bound']}, {m['unit']}, {m['better']} is better)")
            pooled = [pooled_summary([x for r in runs[w] if r["result"]["correct"] for x in r["samples"][m["name"]]])
                      for runs in (base, change)]
            print(f"{'':29s} {'pooled: ' + pooled[0]:>34s} {'pooled: ' + pooled[1]:>34s}")
        digests_a = {r["seed"]: r["digest"] for r in base[w]}
        changed = sorted(r["seed"] for r in change[w] if r["seed"] in digests_a and digests_a[r["seed"]] != r["digest"])
        shared = sorted(set(digests_a) & {r["seed"] for r in change[w]})
        if shared:
            state = f"changed for seeds {changed}" if changed else "identical"
            print(f"{w:16s} output bytes on {len(shared)} shared seeds: {state}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

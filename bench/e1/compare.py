#!/usr/bin/env python3
"""Compare two e1 results, one row per (end-to-end metric, workload).

    python3 bench/e1/compare.py A.json B.json

A is the parent (or a committed baseline), B the change; both are
BENCH_e1_campaign.json documents written by run.py (`--repeat K` gives
each metric K samples), or a baseline holding several such documents
under "sets", whose samples are pooled. Each row applies the metric's
bound from BENCHMARK.json and prints one verdict:

  worse       B's median is worse than A's by more than the bound
  better      B's median beats A's by more than A's own quartile spread
              and B's samples beat A's in at least 90% of (a, b) pairs
  unresolved  A's or B's quartile spread exceeds the bound (unless every
              B sample beats every A sample), or the two results come
              from different host fingerprints
  same        otherwise

Results from different fingerprints (nproc, compiler, build type, threads
per workload) are never called better or worse: every row is unresolved
and a warning says why. Exit status 1 if any row is worse, else 0.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import quartiles, spread  # noqa: E402

BENCHMARK = HERE.parent.parent / "BENCHMARK.json"
FINGERPRINT_KEYS = ("nproc", "compiler", "build_type")


def pooled(doc):
    """A baseline's sets pooled into one document (others pass through)."""
    if "sets" not in doc:
        return doc
    out = {"fingerprint": doc["sets"][0]["fingerprint"], "workloads": {}}
    for s in doc["sets"]:
        for w, rec in s["workloads"].items():
            metrics = out["workloads"].setdefault(w, {"metrics": {}})["metrics"]
            for name, m in rec["metrics"].items():
                metrics.setdefault(name, {"samples": []})["samples"] += (
                    m["samples"])
    return out


def fingerprint_mismatch(a, b):
    """Human-readable differences between two fingerprints ([] if equal)."""
    fa = a.get("fingerprint", {})
    fb = b.get("fingerprint", {})
    out = [f"{k}: {fa.get(k)!r} vs {fb.get(k)!r}"
           for k in FINGERPRINT_KEYS if fa.get(k) != fb.get(k)]
    ta, tb = fa.get("threads", {}), fb.get("threads", {})
    out += [f"threads[{w}]: {ta[w]} vs {tb[w]}"
            for w in sorted(set(ta) & set(tb)) if ta[w] != tb[w]]
    return out


def verdict(a, b, better, bound):
    """Verdict for samples `a` (parent) and `b` (change) of one metric.

    `better` is "higher" or "lower"; `bound` the share of A's median by
    which B may be worse before the row is a regression."""
    sign = 1.0 if better == "higher" else -1.0
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    gain = sign * (mb - ma) / abs(ma) if ma else 0.0
    pairs = [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if max(spread(a), spread(b)) > bound:
        return "better" if wins == len(pairs) else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread(a) and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def compare(a, b, bench):
    """[(workload, metric, median_a, median_b, verdict)], [warnings]."""
    warnings = []
    mismatch = fingerprint_mismatch(a, b)
    if mismatch:
        warnings.append("fingerprints differ (" + "; ".join(mismatch) +
                        "): refusing to call any row better or worse")
    rows = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for m in bench["end_to_end"]:
            name = m["name"]
            if name not in ma or name not in mb:
                continue
            sa, sb = ma[name]["samples"], mb[name]["samples"]
            v = ("unresolved" if mismatch
                 else verdict(sa, sb, m["better"], m["bound"]))
            rows.append((workload, name, quartiles(sa)[1],
                         quartiles(sb)[1], v))
    return rows, warnings


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (pooled(json.loads(pathlib.Path(p).read_text()))
            for p in argv[1:])
    bench = json.loads(BENCHMARK.read_text())
    rows, warnings = compare(a, b, bench)
    for w in warnings:
        print(f"WARNING: {w}", file=sys.stderr)
    print(f"{'workload':16} {'metric':18} {'A median':>14} {'B median':>14} "
          f"{'change':>8}  verdict")
    for workload, name, ma, mb, v in rows:
        change = (mb - ma) / abs(ma) * 100 if ma else 0.0
        print(f"{workload:16} {name:18} {ma:14.6g} {mb:14.6g} "
              f"{change:+7.1f}%  {v}")
    return 1 if any(r[4] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

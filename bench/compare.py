#!/usr/bin/env python3
"""Compare the benchmark results of two commits, metric by metric.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by ``run.py``
(``<workload>-seed<n>-trace0.json``), or one such file.  Runs of the two
sides are paired by workload and seed; pairs whose op-list digests differ
are reported, since they did not run the same ops.  For each workload and
each end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the share of pairs the change won, and a verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``better``: the change won at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: the parent's own spread (interquartile range over median)
  is wider than the bound, unless every change run beats every parent run;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(arg):
    """(workload, seed) -> untraced result record."""
    path = Path(arg)
    files = sorted(path.glob("*-trace0.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        rec = json.loads(f.read_text("utf-8"))
        if not rec.get("trace"):
            out[(rec["workload"], rec["seed"])] = rec
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    """The verdict for one metric; ``pairs`` holds (parent, change) values."""
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (p_med - c_med) / p_med
    if worse_by > bound:
        return "worse", win_share
    if win_share >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        return "better", win_share
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved", win_share
    return "unchanged", win_share


def compare(parent_arg, change_arg, bench=ROOT / "BENCHMARK.json", out=sys.stdout):
    spec = json.loads(Path(bench).read_text("utf-8"))
    parent, change = load_results(parent_arg), load_results(change_arg)
    verdicts = {}
    for wl in [w["name"] for w in spec["workloads"]]:
        seeds = sorted({s for w, s in parent if w == wl} | {s for w, s in change if w == wl})
        paired = [s for s in seeds if (wl, s) in parent and (wl, s) in change]
        if not any(w == wl for w, _ in parent) or not any(w == wl for w, _ in change):
            print(f"{wl}: no results on one side", file=out)
            continue
        print(f"{wl}: {len(paired)} seed pairs", file=out)
        differ = [s for s in paired
                  if parent[(wl, s)]["ops_digest"] != change[(wl, s)]["ops_digest"]]
        if differ:
            print(f"  op lists differ for seeds {differ}: the sides ran different ops", file=out)
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for (w, _), r in parent.items() if w == wl]
            c_vals = [r["metrics"][name]["value"] for (w, _), r in change.items() if w == wl]
            pairs = [(parent[(wl, s)]["metrics"][name]["value"],
                      change[(wl, s)]["metrics"][name]["value"]) for s in paired]
            v, share = verdict(p_vals, c_vals, pairs, m["better"], m["bound"])
            verdicts[(wl, name)] = v
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            print(f"  {name:22s} parent {pq[1]:10.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
                  f"  change {cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {m['unit']:6s}"
                  f"  won {share:4.0%} of pairs  bound {m['bound']:.0%}  {v}", file=out)
    return verdicts


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    compare(*argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are directories holding one file per run: the standard output
of `perfbench/run.py ... --trace 0` (the stamp line names the workload and
seed; the last line is the JSON result). Runs pair up by seed when both
sides ran the same seeds, else by order.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the new side won (ties count for neither),
and a verdict:

  better      the new side wins at least 9 of 10 pairs and the medians
              differ by more than the base side's interquartile range;
  worse       the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json, however wide the spread;
  unresolved  the base side's interquartile range, as a share of its
              median, is wider than the bound, so the bound cannot be
              judged;
  unchanged   otherwise.

Exits 1 when any verdict is `worse`, any run is incorrect, or the new side
fails a larger share of its attempted requests than the base side; else 0.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    """Returns {workload: {seed: result}} for every run file in directory."""
    runs = {}
    skipped = 0
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        lines = [l for l in open(path).read().splitlines() if l.strip()]
        stamp = result = None
        for line in lines:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "stamp" in obj:
                stamp = obj["stamp"]
            elif isinstance(obj, dict) and "metrics" in obj:
                result = obj
        if stamp is None or result is None:
            skipped += 1
            continue
        runs.setdefault(stamp["workload"], {})[stamp["seed"]] = result
    if skipped:
        sys.stderr.write("compare: %s: skipped %d files without a stamp and "
                         "a result\n" % (directory, skipped))
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(base, new, better, bound):
    """Returns (verdict, share of pairs won, spread) for paired runs."""
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    n_q1, n_med, n_q3 = quartiles(list(new.values()))
    sign = 1.0 if better == "higher" else -1.0
    pairs = pair_up(base, new)
    won = sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs)
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    worse_by = sign * (b_med - n_med) / abs(b_med) if b_med else 0.0
    if won >= 0.9 and sign * (n_med - b_med) > (b_q3 - b_q1):
        return "better", won, spread
    if worse_by > bound:
        return "worse", won, spread
    if spread > bound:
        return "unresolved", won, spread
    return "unchanged", won, spread


def failed_share(side):
    """Share of attempted requests that failed, over all runs of one side."""
    attempted = sum(r["attempted"] for r in side.values())
    return sum(r["failed"] for r in side.values()) / attempted if attempted else 1.0


def pair_up(base, new):
    """Pairs runs by seed when both sides ran the same seeds, else by order."""
    common = sorted(set(base) & set(new))
    if len(common) == min(len(base), len(new)) and common:
        return [(base[s], new[s]) for s in common]
    return list(zip([base[s] for s in sorted(base)], [new[s] for s in sorted(new)]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.load(open(args.benchmark))
    base, new = load_runs(args.base), load_runs(args.new)
    status = 0
    print("%-14s %-16s %12s %12s %12s %12s %12s %12s %6s %7s  %s" % (
        "workload", "metric", "base_q1", "base_med", "base_q3", "new_q1",
        "new_med", "new_q3", "won", "spread", "verdict"))
    for wl in [w["name"] for w in spec["workloads"]]:
        if wl not in base or wl not in new:
            print("%-14s missing on one side" % wl)
            status = 1
            continue
        for side in (base[wl], new[wl]):
            for seed, r in side.items():
                if not r["correct"]:
                    print("%-14s seed %s: incorrect run" % (wl, seed))
                    status = 1
        b_failed, n_failed = failed_share(base[wl]), failed_share(new[wl])
        if n_failed > b_failed:
            print("%-14s new side fails %.6f of attempted requests, base %.6f"
                  % (wl, n_failed, b_failed))
            status = 1
        for m in spec["end_to_end"]:
            name = m["name"]
            b = {s: r["metrics"][name]["value"] for s, r in base[wl].items()}
            n = {s: r["metrics"][name]["value"] for s, r in new[wl].items()}
            v, won, spread = verdict(b, n, m["better"], m["bound"])
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            print("%-14s %-16s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %5.0f%% %6.1f%%  %s" % (
                wl, name, bq[0], bq[1], bq[2], nq[0], nq[1], nq[2],
                100 * won, 100 * spread, v))
            if v == "worse":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

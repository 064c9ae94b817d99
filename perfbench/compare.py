"""Compare two sets of benchmark records: parent and change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py perfbench/history.jsonl perfbench/history.jsonl \\
        --parent-sha 1a2b --change-sha 3c4d

Records are ledger lines written by ``run.py``.  Untraced records give
one verdict per (workload, metric), each workload in its own row:

* ``improved``: the change wins at least 9 of every 10 pairs (ties count
  for neither; at least 10 pairs) and the medians differ, in the better
  direction, by more than the parent's inter-quartile distance;
* ``unresolved``: the spread (inter-quartile distance over median) of
  either side exceeds the metric's bound, unless every change run reads
  better than every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
* ``within bound``: otherwise.

Pairs are runs with the same seed; without common seeds, runs pair in
order.  Bounds come from BENCHMARK.json; the wall-clock metrics kept
beside the gated ones (``op_p50_s``, ``hit_p50_s``, ...) take the
largest bound allowed, 0.25.  Traced records are compared
per layer, median against median, without verdicts; per-op latencies
are pooled across runs for a tail with many samples.  Exit code 1 when
any verdict is ``worse`` or a change run failed an oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_BOUND = 0.25


def load(path: str, sha: str | None):
    out = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if sha is None or record.get("sha", "").startswith(sha):
                    out.append(record)
    return out


#: wall-clock metrics kept beside the gated ones; they take the largest
#: bound, since the host's speed swings move them most
WALL_CLOCK = {
    "setup_wall_s": "lower", "op_p50_s": "lower", "op_tail_s": "lower", "trials_per_s": "higher",
    "stabilize_s": "lower", "recover_p50_s": "lower", "recover_tail_s": "lower",
    "req_p50_s": "lower", "req_tail_s": "lower", "hit_p50_s": "lower",
    "miss_p50_s": "lower",
}


def _bounds(bench: dict) -> dict:
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    bounds.update({name: (MAX_BOUND, better) for name, better in WALL_CLOCK.items()})
    return bounds


def _pairs(parent, change):
    """``(parent run, change run)`` pairs: same seed, else in order."""
    by_seed_p, by_seed_c = defaultdict(list), defaultdict(list)
    for r in parent:
        by_seed_p[r["seed"]].append(r)
    for r in change:
        by_seed_c[r["seed"]].append(r)
    common = sorted(set(by_seed_p) & set(by_seed_c))
    if not common:
        return list(zip(parent, change))
    return [pc for s in common for pc in zip(by_seed_p[s], by_seed_c[s])]


def verdict(pv, cv, pairs, bound: float, better: str) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = stats.median(pv), stats.median(cv)
    q1, _, q3 = stats.quartiles(pv)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (mc - mp)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", wins
    all_better = min(sign * c for c in cv) > max(sign * p for p in pv)
    if max(stats.iqr_share(pv), stats.iqr_share(cv)) > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(mp):
        return "worse", wins
    return "within bound", wins


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def compare(parent, change, bench) -> int:
    bounds = _bounds(bench)
    status = 0
    print(f"{'workload':<8} {'metric':<16} {'parent median [q1, q3] n':<35}"
          f"{'change median [q1, q3] n':<35}{'delta':>8} {'wins':>6}  verdict")
    workloads = sorted({r["workload"] for r in parent + change})
    for workload in workloads:
        p_runs = [_values(r) for r in parent if r["workload"] == workload and not r["trace"]]
        c_runs = [_values(r) for r in change if r["workload"] == workload and not r["trace"]]
        if any(r["failed"] for r in c_runs):
            print(f"{workload:<8} {'failed_frac':<16} change runs failed an oracle  -> worse")
            status = 1
        if not p_runs or not c_runs:
            continue
        run_pairs = _pairs(p_runs, c_runs)
        names = [n for n in bounds if all(n in r["values"] for r in p_runs + c_runs)]
        for name in names:
            bound, better = bounds[name]
            pv = [r["values"][name] for r in p_runs]
            cv = [r["values"][name] for r in c_runs]
            pairs = [(p["values"][name], c["values"][name]) for p, c in run_pairs]
            word, wins = verdict(pv, cv, pairs, bound, better)
            if word == "worse":
                status = 1
            pq = stats.quartiles(pv)
            cq = stats.quartiles(cv)
            delta = (pq[1] and (cq[1] - pq[1]) / abs(pq[1])) * 100
            side_p = f"{_fmt(pq[1])} [{_fmt(pq[0])}, {_fmt(pq[2])}] {len(pv)}"
            side_c = f"{_fmt(cq[1])} [{_fmt(cq[0])}, {_fmt(cq[2])}] {len(cv)}"
            print(f"{workload:<8} {name:<16} {side_p:<35}{side_c:<35}"
                  f"{delta:+7.1f}% {wins:>2}/{len(pairs):<3}  {word}")
        if len(run_pairs) < 10:
            print(f"{workload:<8} fewer than 10 pairs: no metric can be 'improved'")
        pl = [x for r in parent if r["workload"] == workload and not r["trace"] for x in r.get("latencies", [])]
        cl = [x for r in change if r["workload"] == workload and not r["trace"] for x in r.get("latencies", [])]
        if pl and cl:
            (pt, pp), (ct, cp) = stats.tail(pl), stats.tail(cl)
            print(f"{workload:<8} pooled op tail: parent {_fmt(pt)} s (p{pp:.0f} of {len(pl)}), "
                  f"change {_fmt(ct)} s (p{cp:.0f} of {len(cl)})")
    _layers(parent, change)
    return status


def _values(record):
    values = dict(record.get("extra", {}))
    values.update(record["metrics"])
    return dict(record, values=values)


def _layers(parent, change) -> None:
    rows = []
    for workload in sorted({r["workload"] for r in parent + change}):
        pt = [r["layers"] for r in parent if r["workload"] == workload and r["trace"]]
        ct = [r["layers"] for r in change if r["workload"] == workload and r["trace"]]
        if not pt or not ct:
            continue
        for name in sorted(set(pt[0]) & set(ct[0])):
            mp = stats.median([x[name] for x in pt if name in x])
            mc = stats.median([x[name] for x in ct if name in x])
            if mp or mc:
                rows.append(f"{workload:<8} {name:<30} {_fmt(mp):>12} {_fmt(mc):>12}")
    if rows:
        print(f"\n{'workload':<8} {'layer metric (traced runs)':<30} {'parent':>12} {'change':>12}")
        print("\n".join(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--parent-sha")
    parser.add_argument("--change-sha")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parent = load(args.parent, args.parent_sha)
    change = load(args.change, args.change_sha)
    if not parent or not change:
        print("compare: no records on one side", file=sys.stderr)
        return 2
    benches = {r.get("bench") for r in parent + change}
    if len(benches) > 1:
        print(f"compare: warning: records come from different benchmark code {sorted(map(str, benches))}")
    return compare(parent, change, bench)


if __name__ == "__main__":
    sys.exit(main())

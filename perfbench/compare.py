#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RUNS.jsonl          # one set: spread only

Each file holds runs recorded by `perfbench/run.py --record FILE`. For each
side the table gives the median and quartiles (statistics.quantiles, n=4)
and the spread (third minus first quartile, as a share of the median).
With two sets it gives a verdict per row, by the rule of the
choosing-metrics guide (section 8) and the bounds in BENCHMARK.json:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              spread (third minus first quartile);
  worse       end-to-end: the change's median is worse than the parent's
              by more than the metric's bound; per-layer: the mirror of
              "improved";
  unresolved  end-to-end: the parent's spread is wider than the bound, and
              not every change run beats every parent run;
  unchanged   otherwise.

Runs pair by (workload, trace, seed); every ratio is printed with its base.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    """{(workload, trace): {seed: {metric: value}}} of one set."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            metrics = {name: m["value"]
                       for name, m in entry["result"]["metrics"].items()}
            key = (entry["workload"], entry.get("trace", 0))
            runs.setdefault(key, {})[entry["seed"]] = metrics
    return runs


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, layer=False)
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, layer=True)
    return metrics


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return med, q1, q3


def verdict(info, parent, change):
    """parent/change: aligned lists of one metric's values."""
    higher = info["better"] == "higher"
    p_med, p_q1, p_q3 = summary(parent)
    c_med, _, _ = summary(change)
    spread = p_q3 - p_q1
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    losses = sum(1 for p, c in zip(parent, change)
                 if (c < p if higher else c > p))
    pairs = len(parent)
    gap = abs(c_med - p_med)
    if wins >= 0.9 * pairs and gap > spread:
        return "improved"
    if info["layer"]:
        return "worse" if losses >= 0.9 * pairs and gap > spread else "unchanged"
    bound = info["bound"] * abs(p_med)
    worse_by = (p_med - c_med) if higher else (c_med - p_med)
    if worse_by > bound:
        return "worse"
    all_better = (min(change) > max(parent)) if higher else (
        max(change) < min(parent))
    if p_med != 0 and spread / abs(p_med) > info["bound"] and not all_better:
        return "unresolved"
    return "unchanged"


def fmt(v):
    return f"{v:.6g}"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    parent = load_runs(argv[0])
    change = load_runs(argv[1]) if len(argv) == 2 else None
    rows = []
    for key in sorted(parent):
        workload, trace = key
        p_runs = parent[key]
        c_runs = change.get(key, {}) if change is not None else {}
        seeds = sorted(set(p_runs) & set(c_runs)) if change else sorted(p_runs)
        if not seeds:
            continue
        names = [n for n in spec if all(n in p_runs[s] for s in seeds)]
        for name in names:
            info = spec[name]
            p_vals = [p_runs[s][name] for s in seeds]
            p_med, p_q1, p_q3 = summary(p_vals)
            rel = (p_q3 - p_q1) / abs(p_med) if p_med else float("nan")
            row = [workload, name, info["unit"], str(len(seeds)),
                   fmt(p_med), fmt(p_q1), fmt(p_q3), f"{rel:.3f}"]
            if change is not None:
                if not all(name in c_runs[s] for s in seeds):
                    continue
                c_vals = [c_runs[s][name] for s in seeds]
                c_med, c_q1, c_q3 = summary(c_vals)
                ratio = c_med / p_med if p_med else float("nan")
                row += [fmt(c_med), fmt(c_q1), fmt(c_q3),
                        f"{ratio:.4f} of {fmt(p_med)} {info['unit']}",
                        verdict(info, p_vals, c_vals)]
            else:
                bound = info.get("bound")
                row += ["-" if bound is None else
                        ("ok" if rel <= bound / 3 else
                         "within bound" if rel <= bound else "TOO WIDE")]
            rows.append(row)
    if change is not None:
        header = ["workload", "metric", "unit", "pairs", "parent_med",
                  "parent_q1", "parent_q3", "parent_spread", "change_med",
                  "change_q1", "change_q3", "change/parent (base)", "verdict"]
    else:
        header = ["workload", "metric", "unit", "runs", "median", "q1", "q3",
                  "spread", "spread vs bound/3"]
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

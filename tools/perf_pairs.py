"""Paired benchmark runs: a parent checkout against a change, alternating.

    python3 tools/perf_pairs.py --parent ../parent --workload ssb_dc_join \
        --seeds 421-430 --label development --out BENCH_x.json --what "..."

For every seed it runs `perfbench/run.py --workload W --seed S --seconds N
--trace T` once in each checkout, the parent first on even positions and
the change first on odd ones, and records each run's correctness, its
metrics, its per-session and per-query log lines and its session count
(the "# session k" lines: a second session runs only when the first ends
within --seconds, and session_s is then the median of both, so the count
is reported with the times). The runs are appended to --out as one batch;
the file also gets, per batch and per workload over all its untraced
batches, each side's median and quartiles of every metric and the pairs
in which the change is better (ties count for neither side). Which way is
better comes from BENCHMARK.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", default=REPO, help="checkout of the change (default: this one)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 421-430 or 421,425")
    p.add_argument("--seconds", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="", help="e.g. development or held-out")
    p.add_argument("--out", required=True, help="BENCH_*.json to append the batch to")
    p.add_argument("--what", default="", help="one line on what the change does")
    return p.parse_args()


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def revision(checkout):
    r = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", checkout, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return r.stdout.strip() + (" + uncommitted changes" if dirty else "")


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    sessions = len({m.group(1) for m in (re.match(r"# session (\d+):", l) for l in lines) if m})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return {"ok": False, "exit": proc.returncode, "sessions": sessions, "metrics": {}}
    return {"ok": proc.returncode == 0 and result["correct"] and result["failed"] == 0,
            "exit": proc.returncode, "attempted": result["attempted"], "failed": result["failed"],
            "sessions": sessions,
            "log": [l[2:] for l in lines if re.match(r"# (session \d+|traced)", l)],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(runs, better):
    """Per metric: each side's median, Q1, Q3 and IQR, and the change's wins."""
    pairs = {}
    for r in runs:
        pairs.setdefault((r["batch"], r["seed"]), {})[r["side"]] = r
    pairs = [p for p in pairs.values() if len(p) == 2 and p["parent"]["ok"] and p["change"]["ok"]]
    out = {"pairs": len(pairs),
           "sessions": {s: [p[s]["sessions"] for p in pairs] for s in ("parent", "change")}}
    names = sorted(set.intersection(*(set(p[s]["metrics"]) for p in pairs for s in p))) if pairs else []
    for m in names:
        row = {}
        for side in ("parent", "change"):
            q1, med, q3 = quartiles([p[side]["metrics"][m] for p in pairs])
            row[side] = {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                         "iqr": round(q3 - q1, 4)}
        sign = -1 if better.get(m, "lower") == "lower" else 1
        wins = sum(1 for p in pairs
                   if sign * (p["change"]["metrics"][m] - p["parent"]["metrics"][m]) > 0)
        row["change_better_in_pairs"] = f"{wins}/{len(pairs)}"
        row["median_gap_exceeds_parent_iqr"] = \
            abs(row["change"]["median"] - row["parent"]["median"]) > row["parent"]["iqr"]
        out[m] = row
    return out


def main():
    args = parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.setdefault("what", args.what)
    doc.setdefault("parent", revision(args.parent))
    doc.setdefault("change", revision(args.change))
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed S --seconds N --trace T, "
                   "in each checkout; each batch gives its N and T")
    doc.setdefault("batches", [])

    runs = []
    for i, seed in enumerate(seeds_of(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(args.parent if side == "parent" else args.change, args.workload, seed,
                         args.seconds, args.trace)
            r.update(batch=len(doc["batches"]), seed=seed, side=side, first=order[0])
            runs.append(r)
            print(f"{args.workload} seed {seed} {side}: ok={r['ok']} sessions={r['sessions']} " +
                  " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items() if k.endswith("_s")),
                  flush=True)
    doc["batches"].append({"workload": args.workload, "label": args.label, "seeds": args.seeds,
                           "seconds": args.seconds, "trace": args.trace, "runs": runs,
                           "summary": summary(runs, better)})
    doc["by_workload"] = {
        w: summary([r for b in doc["batches"] if b["workload"] == w and b["trace"] == 0
                    for r in b["runs"]], better)
        for w in sorted({b["workload"] for b in doc["batches"]})}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0 if all(r["ok"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

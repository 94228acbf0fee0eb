#!/usr/bin/env python3
"""Paired A/B runs of perfbench: a base revision against the working tree.

Run from anywhere inside a DeepMC checkout:

    python3 scripts/perf_ab.py --base HEAD~1 --workload check-cold --pairs 10
    make perf-ab BASE=HEAD~1 W=check-cold PAIRS=10

The base revision is checked out with `git worktree add --detach` into a
temporary directory that is removed on exit.  --base may instead name an
existing git checkout directory, which is used as it is.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once in each tree, with seeds S = --seed, --seed+1, ... and N the
run_seconds of BENCHMARK.json.  The tree that runs first alternates from
pair to pair, so drift over time lands on both sides equally.

For every end-to-end metric in BENCHMARK.json it prints both medians and
interquartile ranges, the pairs the working tree won (by the metric's
`better` direction) and a verdict against the metric's `bound`:

  improved      better on at least 90% of at least 10 pairs, and the
                median gain exceeds the base's interquartile range
                (with fewer pairs: "better, too few pairs to claim")
  worse         the median is worse than the base's by more than bound
  unresolved    either side's interquartile range, relative to its
                median, exceeds bound: the runs spread too widely to tell
  within bound  none of the above

The exit status is 1 if any run reports correct=false, 2 on a usage or
run failure, and 0 otherwise.  --log appends one JSON record with the
medians, ranges and pairs to a file (PERF_LOG.jsonl).
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def run_bench(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError("%s: perfbench exited %d" % (tree, out.returncode))
    lines = out.stdout.strip().splitlines()
    ctx = {}
    for line in lines:
        if line.startswith("perfbench-context "):
            ctx = json.loads(line[len("perfbench-context "):])
    return json.loads(lines[-1]), ctx


def verdict(metric, base, head):
    """Classifies head against base for one end-to-end metric."""
    sign = 1 if metric["better"] == "higher" else -1
    won = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bmed, hmed = statistics.median(base), statistics.median(head)
    bq1, bq3 = quartiles(base)
    hq1, hq3 = quartiles(head)
    gain = sign * (hmed - bmed)
    scale = abs(bmed) or 1.0
    if won >= 0.9 * len(base) and gain > bq3 - bq1:
        v = "improved" if len(base) >= 10 else "better, too few pairs to claim"
    elif -gain > metric["bound"] * scale:
        v = "worse"
    elif max((bq3 - bq1) / scale, (hq3 - hq1) / (abs(hmed) or 1.0)) > metric["bound"]:
        v = "unresolved"
    else:
        v = "within bound"
    r = lambda x: float("%.4g" % x)
    return {"base_median": r(bmed), "base_iqr": [r(bq1), r(bq3)],
            "head_median": r(hmed), "head_iqr": [r(hq1), r(hq3)],
            "won": won, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base revision, or a git checkout directory")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--log", help="append the summary record to this JSONL file")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    # Turn SIGTERM into an exception so the worktree is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    tmp = None
    base_tree = args.base
    try:
        if os.path.isdir(args.base):
            base_rev = git(args.base, "rev-parse", "HEAD")
        else:
            base_rev = git(root, "rev-parse", "--verify", args.base + "^{commit}")
            tmp = tempfile.mkdtemp(prefix="perf-ab-")
            base_tree = os.path.join(tmp, "base")
            git(root, "worktree", "add", "--detach", base_tree, base_rev)
        head_rev = git(root, "rev-parse", "HEAD")
        if git(root, "status", "--porcelain", "--untracked-files=no"):
            head_rev += "+dirty"

        sides = {"base": base_tree, "head": root}
        values = {"base": {m["name"]: [] for m in metrics},
                  "head": {m["name"]: [] for m in metrics}}
        incorrect, ctxs = [], {}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                res, ctx = run_bench(sides[side], args.workload, seed, seconds)
                ctxs[side] = ctx
                if not res.get("correct"):
                    incorrect.append("%s seed %d" % (side, seed))
                for m in metrics:
                    values[side][m["name"]].append(res["metrics"][m["name"]]["value"])
            print("pair %d/%d seed %d done (%s first)" % (i + 1, args.pairs, seed, order[0]),
                  file=sys.stderr, flush=True)
    finally:
        if tmp is not None:
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force", base_tree],
                           capture_output=True)
            subprocess.run(["git", "-C", root, "worktree", "prune"], capture_output=True)
            shutil.rmtree(tmp, ignore_errors=True)

    summary = {}
    print("%s: %d pairs, seeds %d-%d, base %s, head %s" % (
        args.workload, args.pairs, args.seed, args.seed + args.pairs - 1, base_rev, head_rev))
    print("%-20s %12s %23s %12s %23s %7s  %s" % (
        "metric", "base median", "base IQR", "head median", "head IQR", "won", "verdict"))
    for m in metrics:
        name = m["name"]
        v = verdict(m, values["base"][name], values["head"][name])
        summary[name] = v
        print("%-20s %12.4g %11.4g-%-11.4g %12.4g %11.4g-%-11.4g %3d/%-3d  %s (bound %g)" % (
            name, v["base_median"], v["base_iqr"][0], v["base_iqr"][1],
            v["head_median"], v["head_iqr"][0], v["head_iqr"][1],
            v["won"], args.pairs, v["verdict"], m["bound"]))
    if incorrect:
        print("correct=false: " + ", ".join(incorrect))

    if args.log:
        head_ctx = ctxs.get("head", {})
        record = {
            "commit": head_rev,
            "src": head_ctx.get("commit"),
            "base": base_rev,
            "base_src": ctxs.get("base", {}).get("commit"),
            "workload": args.workload,
            "nproc": head_ctx.get("nproc"),
            "go": head_ctx.get("go"),
            "pairs": args.pairs,
            "seeds": [args.seed, args.seed + args.pairs - 1],
            "seconds": seconds,
            "correct": not incorrect,
            "metrics": summary,
        }
        with open(args.log, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    return 1 if incorrect else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print("perf-ab: %s" % e, file=sys.stderr)
        sys.exit(2)

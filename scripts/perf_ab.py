#!/usr/bin/env python3
"""Interleaved parent/change campaign of the end-to-end benchmark.

Run from anywhere inside the repository:

    scripts/perf_ab.py HEAD --workload colo-antag --pairs 10 --seconds 20

The base side is `git archive REV` unpacked into a temporary directory;
the change side is the working tree. Each side builds and runs through
its own perfbench/run.py, so both use the benchmark code of their own
tree. Pairs alternate which side runs first (the base in odd pairs),
and the workloads take turns within each pair. Every reading goes to
stderr as it lands. At the end, for every metric of every workload:
each side's median and quartiles, the pairs the change won (ties count
for neither side), the ratio of the medians and |delta| over the base's
interquartile range. Directions come from BENCHMARK.json.

Exits 1 when a workload's result digest differs between the sides (the
simulated work is not the same), 2 when a build or run fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^workload \S+: .*, digest ([0-9a-f]{16})", re.M)


def fail(msg):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args, **kw):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, **kw).stdout


def unpack(rev, workdir):
    """The tree of @p rev under @p workdir, kept and reused by commit."""
    try:
        sha = git("rev-parse", "--verify", f"{rev}^{{commit}}",
                  text=True).strip()
    except subprocess.CalledProcessError:
        fail(f"unknown revision {rev!r}")
    tree = Path(workdir) / sha
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        subprocess.run(["tar", "-x", "-C", str(tree)], check=True,
                       input=git("archive", sha))
    return sha, tree


def run(tree, args, workload, scale=1.0, seconds=None):
    """One benchmark run through @p tree's run.py: (metrics, digest)."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds or args.seconds),
           "--trace", str(args.trace), "--scale", str(scale)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    digest = DIGEST.search(done.stdout)
    if done.returncode != 0 or not lines or not digest:
        sys.stderr.write(done.stderr[-2000:])
        fail(f"{' '.join(cmd)} exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    return metrics, digest.group(1)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def directions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    better["failed"] = "lower"
    return better


def report(workload, base, change, better):
    rows = [("metric", "base median [Q1-Q3]", "change median [Q1-Q3]",
             "won", "ratio", "|d|/IQR")]
    for name in base[0][0]:
        b = [m[name] for m, _ in base]
        c = [m[name] for m, _ in change]
        bq, cq = quartiles(b), quartiles(c)
        sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
        won = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        iqr = bq[2] - bq[0]
        delta = abs(cq[1] - bq[1])
        rows.append((
            name,
            f"{bq[1]:.6g} [{bq[0]:.6g}-{bq[2]:.6g}]",
            f"{cq[1]:.6g} [{cq[0]:.6g}-{cq[2]:.6g}]",
            f"{won}/{len(b)}" if sign else "-",
            f"{cq[1] / bq[1]:.4f}x" if bq[1] else "-",
            f"{delta / iqr:.2f}" if iqr else ("0" if not delta else "inf")))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print(f"\n{workload}: {len(base)} pairs")
    for r in rows:
        print("  " + "  ".join(f"{v:<{w}}" if i == 0 else f"{v:>{w}}"
                               for i, (v, w) in enumerate(zip(r, widths))))
    digests = {d for _, d in base} | {d for _, d in change}
    same = len(digests) == 1
    print(f"  digest: {'same' if same else 'DIFFERENT'} "
          f"({', '.join(sorted(digests))})")
    return same


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="base revision (the parent)")
    ap.add_argument("--workload", action="append", required=True,
                    help="repeat to interleave several workloads")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir",
                    help="keep the base tree and its build here for "
                         "later campaigns (default: a temporary directory)")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        sha, base_tree = unpack(args.rev, args.workdir or tmp)
        sides = {"base": base_tree, "change": ROOT}
        print(f"base {sha} against the working tree of {ROOT}",
              file=sys.stderr)
        # Build both sides (a short run at 5% scale) before anything is
        # timed.
        for tree in sides.values():
            run(tree, args, args.workload[0], scale=0.05, seconds=0.1)
        results = {w: {s: [] for s in sides} for w in args.workload}
        for pair in range(args.pairs):
            order = ["base", "change"] if pair % 2 == 0 else ["change",
                                                             "base"]
            for workload in args.workload:
                for side in order:
                    metrics, digest = run(sides[side], args, workload)
                    results[workload][side].append((metrics, digest))
                    shown = " ".join(
                        f"{k} {metrics[k]:.6g}" for k in
                        ("sim_syscalls_per_s", "setup_s", "peak_rss_mb",
                         "failed") if k in metrics)
                    print(f"pair {pair + 1} {workload} {side}: {shown} "
                          f"digest {digest}", file=sys.stderr)
    better = directions()
    print(f"perf_ab: base {sha}, seed {args.seed}, {args.seconds:g} s runs, "
          f"trace {args.trace}")
    same = [report(w, r["base"], r["change"], better)
            for w, r in results.items()]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())

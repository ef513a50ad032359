#!/usr/bin/env python3
"""Timed before/after pairs of the benchmark: one commit against another.

Checks out PARENT and CHANGE side by side with ``git worktree add`` under a
temporary directory, then runs each side's own, unedited
``perfbench/run.py --trace 0`` once per pair and workload, at the pair's
seed. The parent runs first in the first, third, ... pair and second in the
others, so drift of the host's speed falls on both sides alike; run every pair in one
session, because the reference clock drifts a few per cent between sessions.
Writes one JSON: per workload the seeds, whether every run was correct, the
failed operations per side, and per end-to-end metric of CHANGE's
``BENCHMARK.json`` its unit, direction and bound, both sides' median, q1, q3
and IQR (q3 - q1, linear interpolation), the change of the median, the
pairs the change wins and ties, and every run's value.

    python scripts/bench_pairs.py HEAD~1 HEAD --out BENCH_N.json \\
        --workload city-1000 desk-forecast --pairs 10 --seeds 51 52 53 54 55 56 57 58 59 60 \\
        --seconds 40 --claim city-1000:tune_s_per_iter
    python scripts/bench_pairs.py HEAD HEAD --workload smoke --pairs 1 --seconds 1 --out aa.json

Ten pairs of both benchmark workloads at 40 s took 19 minutes on a 2-core
VM.
"""

import argparse
import json
import math
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", "-C", str(cwd), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def quartiles(values: list[float]) -> dict:
    """Median, q1, q3 and IQR, interpolating linearly between order statistics."""
    s = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(s) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    q1, q3 = at(0.25), at(0.75)
    return {"median": at(0.5), "q1": q1, "q3": q3, "iqr": q3 - q1}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its result line, with the environment line beside it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout.name}: perfbench/run.py --workload {workload} "
                           f"--seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["environment"]
    return result


def summarize(declared: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per metric: both sides' quartiles, the median's change, wins, ties and every value."""
    out = {}
    for spec in declared:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {  # run.py writes a non-finite value as null
            side: [math.nan if v is None else v
                   for v in (r["metrics"][name]["value"] for r in runs[side])]
            for side in SIDES
        }
        pairs = list(zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "median_change_frac": change["median"] / parent["median"] - 1.0
            if parent["median"] else math.nan,
            "wins": sum((c > p) if higher else (c < p) for p, c in pairs),
            "ties": sum(c == p for p, c in pairs),
            "max_rel_diff": max((abs(c - p) / abs(p) if p else math.nan for p, c in pairs),
                                default=math.nan),
            "parent_runs": values["parent"],
            "change_runs": values["change"],
        }
    return out


def cpu_model() -> str | None:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def parse_claim(text: str) -> dict:
    workload, sep, metric = text.partition(":")
    if not sep or not workload or not metric:
        raise argparse.ArgumentTypeError(f"--claim takes workload:metric, got {text!r}")
    return {"workload": workload, "metric": metric}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="the commit before the change")
    ap.add_argument("change", help="the commit with the change")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--workload", nargs="+", default=["desk-forecast", "city-1000"])
    ap.add_argument("--pairs", type=int, help="default: one a seed, else 10")
    ap.add_argument("--seeds", type=int, nargs="+", help="one a pair (default 51, 52, ...)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--claim", type=parse_claim, help="workload:metric the change claims")
    ap.add_argument("--describe", help="what the change does (default: its commit subject)")
    args = ap.parse_args(argv)
    pairs = args.pairs if args.pairs is not None else len(args.seeds or ()) or 10
    seeds = args.seeds or list(range(51, 51 + pairs))
    if pairs < 1 or len(seeds) != pairs:
        ap.error(f"--pairs {pairs} takes as many --seeds, got {len(seeds)}")
    if args.claim and args.claim["workload"] not in args.workload:
        ap.error(f"--claim names workload {args.claim['workload']!r}, which is not run")
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in zip(SIDES, (args.parent, args.change))}

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        try:
            for side in SIDES:
                git("worktree", "add", "--detach", str(checkouts[side]), commits[side])
            declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
            workloads, environment = {}, None
            for workload in args.workload:
                runs = {side: [] for side in SIDES}
                for i, seed in enumerate(seeds):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    for side in order:
                        result = run_once(checkouts[side], workload, seed, args.seconds)
                        runs[side].append(result)
                        print(f"{workload} pair {i + 1}/{pairs} seed {seed} {side}: "
                              f"correct={result['correct']}", file=sys.stderr)
                environment = runs["change"][0]["environment"]
                workloads[workload] = {
                    "pairs": pairs,
                    "seeds": seeds,
                    "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
                    "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                    "metrics": summarize(declared["end_to_end"], runs),
                }
        finally:
            for side in SIDES:
                if checkouts[side].exists():
                    git("worktree", "remove", "--force", str(checkouts[side]))
            git("worktree", "prune")

    environment = {k: v for k, v in environment.items() if k not in ("git_commit", "seed")}
    environment["cpu"] = cpu_model()
    report = {
        "change": args.describe or git("log", "-1", "--format=%s", commits["change"]),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "protocol": (
            f"pairs per workload: {pairs}, at seeds {', '.join(map(str, seeds))}; the parent "
            "runs first in the first, third, ... pair and second in the others; each side "
            "from its own checkout. "
            "wins counts the pairs in which the change reads better, ties for neither; "
            "iqr is q3 - q1."
        ),
        "environment": environment,
        "claim": args.claim,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g}"
                  f" ({m['median_change_frac']:+.1%}), {m['wins']} of {entry['pairs']} won")
    return 0


if __name__ == "__main__":
    sys.exit(main())

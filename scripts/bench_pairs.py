#!/usr/bin/env python3
"""Compare a base revision with the working tree on the benchmark workloads,
in alternating pairs, and write the result to ``BENCH_<label>.json``.

    python3 scripts/bench_pairs.py --label toy-attention-fold --base HEAD

The base revision's committed files are exported to a temporary directory
with ``git archive``, so the repository's own checkout and metadata are left
as they are. Each pair runs ``perfbench/run.py --trace 0`` once on each side,
from that side's own root, with the same workload, seed and run length; the
side that runs first alternates from pair to pair, and the workloads take
turns within a pair, so drift of the machine's speed falls on both sides
alike. Afterwards one ``--trace 1`` run per side and workload records the
per-layer self-time shares, the busy seconds of the spans that report them,
and perfbench's verdict lines (largest layer, expected counts, failed
checks).

For every side, workload and end-to-end metric of ``BENCHMARK.json`` the
file holds each run's value in pair order, the median, minimum and
quartiles, and the side's win fraction: the share of pairs in which it read
strictly better than the other side (ties count for neither). Each metric
also carries ``claim_rule_met``, the verdict of the rule a claimed gain must
pass: there are at least MIN_PAIRS pairs, in the metric's better direction
the change wins at least nine tenths of them, and its median beats the
base's by more than the base's interquartile range and, on a metric in MB,
by more than MEMORY_FLOOR_MB, the floor recorded as ``claim_floor``. The
file also holds the machine facts that perfbench prints, failed and
attempted operation counts, and whether every run was correct. The working
tree's commit and whether it had uncommitted changes are read before the
first run; ``tree_changed_during_run`` records whether ``git status
--porcelain`` read differently once the runs were done.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
# Fewer pairs give no verdict: with one, the base's quartiles coincide, so
# any single win would beat its zero spread.
MIN_PAIRS = 10
# Least median gain in MB a memory claim needs: identical files run from two
# directories read 0.08-0.25 MB apart in peak RSS on tile9-toy.
MEMORY_FLOOR_MB = 0.5


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files committed at ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run from ``root``: its JSON result plus the machine facts
    from its ``machine`` line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(argv[1:])} in {root} exited {proc.returncode}: "
                           f"{(proc.stderr or proc.stdout).strip()[-500:]}")
    result = json.loads(lines[-1])
    result["report"] = [line for line in lines
                        if line.startswith(("largest self-time layer", "expected ", "check failed"))]
    # "machine k=v  k=v ...": facts are two spaces apart, and a value may hold one.
    facts = next((line[len("machine "):].split("  ") for line in lines
                  if line.startswith("machine ")), [])
    result["machine"] = dict(fact.split("=", 1) for fact in facts)
    return result


def summary(values: list[float], wins: int) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"runs": values, "median": statistics.median(values), "min": min(values),
            "q1": q1, "q3": q3, "win_frac": wins / len(values)}


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def claim_rule_met(base: dict, change: dict, direction: str, floor: float = 0.0) -> bool:
    """Whether there are at least MIN_PAIRS pairs, the change wins at least
    nine tenths of them and its median beats the base's by more than both
    the base's interquartile range and ``floor``."""
    if len(change["runs"]) < MIN_PAIRS:
        return False
    gap = base["median"] - change["median"]
    if direction != "lower":
        gap = -gap
    return change["win_frac"] >= 0.9 and gap > max(base["q3"] - base["q1"], floor)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD", help="git revision to compare with (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float, default=12.0, help="length of each run (default 12)")
    parser.add_argument("--seed", type=int, default=1000,
                        help="workload seed of the first pair; pair i uses seed + i (default 1000)")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the output file")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    status = git("status", "--porcelain")
    change = {"rev": git("rev-parse", "HEAD"), "uncommitted_changes": bool(status)}
    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    traces = {w: {} for w in workloads}

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        roots = {"base": Path(tmp), "change": ROOT}
        export(base_rev, roots["base"])
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    result = run_bench(roots[side], workload, seed, args.seconds, trace=0)
                    runs[workload][side].append(result)
                    print(f"pair {i + 1}/{args.pairs} {workload:12s} {side:6s} "
                          f"op_s {result['metrics']['op_s']['value']:.4f}", file=sys.stderr)
        for workload in workloads:
            for side in SIDES:
                result = run_bench(roots[side], workload, seeds[0], args.seconds, trace=1)
                traces[workload][side] = {
                    "correct": result["correct"],
                    "report": result["report"],
                    "self_share": {name: m["value"] for name, m in result["metrics"].items()
                                   if name.endswith(".self_share")},
                    "busy_s": {name: m["value"] for name, m in result["metrics"].items()
                               if name.endswith(".s")},
                }

    doc = {
        "label": args.label,
        "base": {"ref": args.base, "rev": base_rev},
        "change": {**change, "tree_changed_during_run": git("status", "--porcelain") != status},
        "command": "perfbench/run.py --trace 0",
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "first_side": [(SIDES if i % 2 == 0 else SIDES[::-1])[0] for i in range(args.pairs)],
        "machine": runs[workloads[0]]["change"][0]["machine"],
        "workloads": {},
    }
    for workload in workloads:
        sides = runs[workload]
        entry = {
            "correct": {s: all(r["correct"] for r in sides[s]) for s in SIDES},
            "failed": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in sides[s]) for s in SIDES},
            "metrics": {},
            "trace": traces[workload],
        }
        for name, meta in metrics.items():
            values = {s: [r["metrics"][name]["value"] for r in sides[s]] for s in SIDES}
            floor = MEMORY_FLOOR_MB if meta["unit"] == "MB" else 0.0
            entry["metrics"][name] = {"unit": meta["unit"], "better": meta["better"],
                                      "claim_floor": floor}
            for side, other in (SIDES, SIDES[::-1]):
                wins = sum(better(a, b, meta["better"]) for a, b in zip(values[side], values[other]))
                entry["metrics"][name][side] = summary(values[side], wins)
            entry["metrics"][name]["claim_rule_met"] = claim_rule_met(
                entry["metrics"][name]["base"], entry["metrics"][name]["change"], meta["better"], floor)
        doc["workloads"][workload] = entry

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:12s} {name:12s} base {m['base']['median']:.6g} "
                  f"[{m['base']['q1']:.6g}, {m['base']['q3']:.6g}]  change {m['change']['median']:.6g} "
                  f"[{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]  change wins "
                  f"{m['change']['win_frac']:.0%} {m['unit']}, claim rule "
                  f"{'met' if m['claim_rule_met'] else 'not met'}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, summarised as one JSON file.

Usage, from the root of the change's checkout, with the parent commit
checked out in another directory (``git worktree add ../parent <commit>``)::

    python3 scripts/bench_pairs.py --parent ../parent \\
        --workload orders=1201-1210 --workload grid=1101-1106 \\
        --seconds 25 --note "what the change does" --output BENCH_12.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T``
once in each checkout with the same seed; the side that runs first
alternates from pair to pair.  For every end-to-end metric that
``BENCHMARK.json`` lists, the file records each side's median, quartiles
and runs, the number of pairs in which the change reads better, and a
verdict against the metric's bound (:func:`verdict`); ``median_digits``
stands next to each rate.  Every run's last output line is also appended to
``<output>.runs.jsonl`` as it finishes.  The parent's commit is read from
its checkout, so a ``--parent`` that is not a git checkout (a ``git
archive`` copy, say) is refused before any run.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

DESCRIPTION = (
    "Alternating parent/change runs of `python3 perfbench/run.py --workload W "
    "--seed S --seconds {seconds}` (the side that runs first alternates from "
    "pair to pair). For each end-to-end metric: the median and quartiles of "
    "each side's runs, every run, and the pairs in which the change reads "
    "better, and a verdict against the metric's bound: `unresolved` where the "
    "parent's quartile spread is wider than the bound (unless every change run "
    "beats every parent run), else `worse` where the change median is worse "
    "than the parent median by more than the bound, else `within_bound`. "
    "`median_digits` stands next to each rate."
)


def parse_output(stdout: str) -> dict:
    """The result object of one run (its last line), with the run's
    ``environment:`` line under the key ``environment``."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("environment: "):
            result["environment"] = json.loads(line[len("environment: "):])
    return result


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return parse_output(proc.stdout)


def _side(runs: list) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """The no-regression verdict of one metric on one workload, for two sides
    as :func:`_side` gives them and a ``bound`` relative to the parent's
    median.

    ``unresolved`` when the parent's own quartile spread is wider than the
    bound, since a difference of the medians cannot then be told from
    run-to-run spread, unless every change run reads better than every
    parent run; otherwise ``worse`` when the change's median is worse by
    more than the bound; otherwise ``within_bound``.
    """
    sign = 1 if better == "higher" else -1
    allowed = bound * abs(parent["median"])
    beats_all = min(sign * v for v in change["runs"]) > max(sign * v for v in parent["runs"])
    if parent["q3"] - parent["q1"] > allowed and not beats_all:
        return "unresolved"
    if sign * (parent["median"] - change["median"]) > allowed:
        return "worse"
    return "within_bound"


def summarise_workload(seeds: list, parent: list, change: list, metrics: list) -> dict:
    """Summary of one workload's pairs; ``parent[i]`` and ``change[i]`` are the
    results of seed ``seeds[i]`` and ``metrics`` the end-to-end entries of
    ``BENCHMARK.json``."""
    summary = {
        "seeds": seeds,
        "pairs": len(seeds),
        "correct": {name: [r["correct"] for r in side]
                    for name, side in (("parent", parent), ("change", change))},
        "failed_share": {name: [r["failed"] / r["attempted"] for r in side]
                         for name, side in (("parent", parent), ("change", change))},
        "metrics": {},
    }
    digits = {name: float(np.median([r["metrics"]["median_digits"]["value"] for r in side]))
              for name, side in (("parent", parent), ("change", change))}
    for spec in metrics:
        name = spec["name"]
        if any(name not in r["metrics"] for r in parent + change):
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1 if spec["better"] == "higher" else -1
        entry = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": _side(p),
            "change": _side(c),
            "change_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
        }
        entry["verdict"] = verdict(entry["parent"], entry["change"], spec["better"],
                                   spec["bound"])
        if spec["unit"] == "1/s":
            entry["median_digits"] = digits
        summary["metrics"][name] = entry
    return summary


def machine(environment: dict) -> dict:
    blas = environment.get("blas", {})
    return {
        "cpus": environment.get("nproc"),
        "python": environment.get("python"),
        "numpy": environment.get("numpy"),
        "blas": " ".join(str(blas[k]) for k in ("name", "version") if k in blas),
        "gpu": None,
    }


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=".", help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="NAME=FIRST-LAST: a workload and its seeds, one pair per seed")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--note", default="", help="one line on what the change does")
    ap.add_argument("--output", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent_commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=args.parent,
        capture_output=True, text=True,
    ).stdout.strip()
    if not parent_commit:
        ap.error(f"--parent {args.parent} is not a git checkout, so its commit is "
                 "unknown; check the parent out with `git worktree add`")
    doc = {
        "description": DESCRIPTION.format(seconds=f"{args.seconds:g}"),
        "change": args.note,
        "parent_commit": parent_commit,
        "machine": None,
        "workloads": {},
    }
    pair = 0
    with open(args.output + ".runs.jsonl", "a", encoding="utf-8") as log:
        for spec in args.workload:
            workload, _, seed_text = spec.partition("=")
            seeds = _seeds(seed_text)
            sides = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                pair += 1
                for side in order:
                    checkout = args.parent if side == "parent" else args.change
                    result = run_once(checkout, workload, seed, args.seconds)
                    sides[side].append(result)
                    log.write(json.dumps({"workload": workload, "seed": seed,
                                          "side": side, "result": result}) + "\n")
                    log.flush()
                    value = result["metrics"].get("wall_s", {}).get("value")
                    print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                          f"wall_s={value}", flush=True)
            doc["machine"] = doc["machine"] or machine(
                sides["change"][0].get("environment", {}))
            doc["workloads"][workload] = summarise_workload(
                seeds, sides["parent"], sides["change"], metrics)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired CPU-time and wall-time A/B of benchmark workloads on two source trees.

Each round runs one child process per tree, in alternated order (base
first in even rounds, head first in odd ones). A child imports
``mrc_dof_lab`` from its tree's ``src/`` and the workload from its tree's
``perfbench/workloads.py``, runs the warm-up passes, then times the timed
passes with ``time.process_time`` (CPU time) and ``time.perf_counter``
(wall time). Both trees get the same pass seeds, and every child runs
with ``OPENBLAS_NUM_THREADS=1``. The script prints one JSON record. For
each workload and for each of CPU and wall milliseconds per pass, it
gives each side's median and quartiles over the rounds and the rounds in
which head took less time than base; it also gives each round's two
children, in the order they ran, and the passes whose outputs failed the
workload's gate. The record holds one value per child, never one per
pass. ``--out PATH`` also writes the record to PATH.

Usage, from the root of a checkout:

    python3 tools/cpu_ab.py --base ../parent --head . --workload extension_large
    python3 tools/cpu_ab.py --base ../parent --head . --workload sweep_grid \\
        --workload noisy_power_sweep --out BENCH_33.json

Standard library only; a child's failure to run exits the script with
status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

# One child: argv is the tree, the workload, the warm-up pass count and
# the pass seeds as JSON. Prints its CPU and wall seconds over the timed
# passes and the number of failed gate checks.
CHILD = r"""
import json, os, sys, tempfile, time
tree, name, warmup, seeds = sys.argv[1], sys.argv[2], int(sys.argv[3]), json.loads(sys.argv[4])
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
import mrc_dof_lab
import workloads
package = os.path.join(tree, "src", "mrc_dof_lab", "__init__.py")
if os.path.realpath(mrc_dof_lab.__file__) != os.path.realpath(package):
    sys.exit(f"imported mrc_dof_lab from {mrc_dof_lab.__file__}, not {package}")
with tempfile.TemporaryDirectory() as out:
    workload = workloads.WORKLOADS[name](out)
    for seed in seeds[:warmup]:
        workload.run_pass(seed)
    failed = 0
    cpu, wall = time.process_time(), time.perf_counter()
    for seed in seeds[warmup:]:
        failed += workload.run_pass(seed).failed
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
print(json.dumps({"cpu_s": cpu, "wall_s": wall, "failed": failed}))
"""

CLOCKS = ("cpu", "wall")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="root of the parent tree")
    parser.add_argument("--head", required=True, help="root of the changed tree")
    parser.add_argument("--workload", required=True, action="append",
                        help="a name in perfbench/workloads.py's WORKLOADS; repeat for more")
    parser.add_argument("--rounds", type=int, default=10, help="child pairs (default 10)")
    parser.add_argument("--passes", type=int, default=200,
                        help="timed passes per child (default 200)")
    parser.add_argument("--warmup", type=int, default=20,
                        help="untimed passes per child first (default 20)")
    parser.add_argument("--out", help="also write the JSON record to this file")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1 or args.warmup < 0:
        parser.error("--rounds and --passes must be positive, --warmup not negative")
    for side in ("base", "head"):
        if not (Path(getattr(args, side)) / "perfbench" / "workloads.py").is_file():
            parser.error(f"--{side} {getattr(args, side)} has no perfbench/workloads.py")
    return args


def run_child(tree: str, workload: str, args, seeds: list[int]) -> dict:
    """One child's CPU and wall milliseconds per timed pass and its failed
    checks."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-c", CHILD, os.path.abspath(tree), workload, str(args.warmup),
            json.dumps(seeds)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(2)
    result = json.loads(done.stdout.splitlines()[-1])
    per_pass = {clock: 1e3 * result[f"{clock}_s"] / args.passes for clock in CLOCKS}
    return {**per_pass, "failed": result["failed"]}


def summary(values: list[float]) -> dict:
    """Median and quartiles; with fewer than two values all three are the one."""
    if len(values) < 2:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(workload: str, args, seeds: list[int]) -> dict:
    """The alternated rounds of one workload and their summary."""
    rounds = []
    for round_index in range(args.rounds):
        order = ("base", "head") if round_index % 2 == 0 else ("head", "base")
        rounds.append({"first": order[0],
                       **{side: run_child(getattr(args, side), workload, args, seeds)
                          for side in order}})
    record = {}
    for clock in CLOCKS:
        base = [r["base"][clock] for r in rounds]
        head = [r["head"][clock] for r in rounds]
        record[clock] = {"base": summary(base), "head": summary(head),
                         "head_won": sum(h < b for b, h in zip(base, head))}
    record["failed"] = {side: sum(r[side]["failed"] for r in rounds) for side in ("base", "head")}
    record["rounds"] = rounds
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    rnd = random.Random(0)
    seeds = [rnd.getrandbits(48) for _ in range(args.warmup + args.passes)]
    report = {
        "rounds": args.rounds,
        "passes": args.passes,
        "warmup": args.warmup,
        "unit": "ms per pass",
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "cpus": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": "1",
        },
        "workloads": {workload: compare(workload, args, seeds) for workload in args.workload},
    }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

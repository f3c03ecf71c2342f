"""Duet benchmark: the working tree against a base revision, both at once.

    python3 tools/duet.py --base REV --workload W --pairs N [--seed S]

Exports REV and the working tree (its tracked files and the untracked ones
git does not ignore) with ``git archive`` into a temporary directory. Each
pair runs both copies' own ``bench/child.py`` at the same time, one per
vCPU, on the same spec: the workload's cached fixture, its config and the
seed ``S * 1000 + k`` for pair k. The side that launches first alternates
from pair to pair.

Per end-to-end metric it prints the median ratio working tree / base, a
95% bootstrap interval of that median, the share of pairs in which the
working tree is lower, each side's median and interquartile range (IQR),
so that a change's median difference can be set against the base's own
spread, and a verdict; then every child's ``correct``. The last line of
standard output is the same as one JSON object. ``--base HEAD`` is the A/A
control: with nothing uncommitted, both copies hold the same files.

The verdict reads the metric's ``bound`` and ``better`` from
``BENCHMARK.json``; "beats" and "above" below mean better and worse in
that direction, and the bound is a fraction of the base's median:

- ``gain``: the change beats the base in at least 9 of 10 pairs, and the
  medians differ by more than the base's IQR;
- ``regressed``: the change's median is above the base's by more than the
  bound;
- ``unresolved``: the base's IQR exceeds the bound, unless every change
  run beats every base run;
- ``within bound``: everything else.

Concurrent children share caches and memory bandwidth, so a change in
memory traffic is measured under contention. Method: Bulej et al., *Duet
Benchmarking: Improving Measurement Accuracy in the Cloud*, Empirical
Software Engineering 25, 2020.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
METRICS = tuple(END_TO_END)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900.0
BOOTSTRAP_DRAWS = 2000


def git(*args: str, env: dict | None = None) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    return out.stdout.strip()


def working_tree(scratch: Path) -> str:
    """A tree object of the working tree's files, written through a scratch index."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    git("read-tree", "HEAD", env=env)
    git("add", "--all", env=env)
    return git("write-tree", env=env)


def export(treeish: str, dest: Path) -> Path:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", treeish], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def launch(tree: Path, spec: dict) -> subprocess.Popen:
    """The tree's own ``bench/child.py`` on ``spec``, as ``bench/run.py`` starts it."""
    out = Path(spec["out"])
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in THREAD_VARS})
    with (out / "stderr.txt").open("wb") as stderr:
        return subprocess.Popen(
            [sys.executable, str(tree / "bench" / "child.py"), json.dumps(spec)],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
        )


def collect(proc: subprocess.Popen, spec: dict) -> dict:
    out = Path(spec["out"])
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
        return json.loads((out / "result.json").read_text())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"crashed": "timed out"}
    except (OSError, ValueError) as exc:
        return {"crashed": f"{exc}\n{(out / 'stderr.txt').read_text(errors='replace')[-2000:]}"}


def correct(result: dict) -> bool:
    return "crashed" not in result and not result["failures"]


def spread(values: np.ndarray) -> dict:
    """The median of one side's values and their interquartile range."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1)}


def verdict(base: np.ndarray, change: np.ndarray, bound: float, better: str) -> str:
    """One metric's verdict from its paired runs (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    base, change = sign * np.asarray(base), sign * np.asarray(change)  # lower is better from here
    b, c = spread(base), spread(change)
    allowed = bound * abs(b["median"])
    if np.mean(change < base) >= 0.9 and b["median"] - c["median"] > b["iqr"]:
        return "gain"
    if c["median"] - b["median"] > allowed:
        return "regressed"
    if b["iqr"] > allowed and not change.max() < base.min():
        return "unresolved"
    return "within bound"


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Per metric over the pairs in which both children passed: ratios change / base, each side's spread."""
    rng = np.random.default_rng(0)
    both = [(base, change) for base, change in pairs if correct(base) and correct(change)]
    report = {}
    for metric in METRICS:
        ratios = np.array([change[metric] / base[metric] for base, change in both])
        if ratios.size == 0:
            continue
        sides = {side: np.array([pair[i][metric] for pair in both]) for i, side in enumerate(("base", "change"))}
        medians = np.median(ratios[rng.integers(ratios.size, size=(BOOTSTRAP_DRAWS, ratios.size))], axis=1)
        lo, hi = np.percentile(medians, [2.5, 97.5])
        report[metric] = {
            "median_ratio": float(np.median(ratios)),
            "ci95": [float(lo), float(hi)],
            "lower": int((ratios < 1.0).sum()),
            "pairs": int(ratios.size),
            "base": spread(sides["base"]),
            "change": spread(sides["change"]),
            "verdict": verdict(sides["base"], sides["change"], END_TO_END[metric]["bound"],
                               END_TO_END[metric]["better"]),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="pair k runs workload seed SEED * 1000 + k")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="duet-") as tmp:
        scratch = Path(tmp)
        base = export(git("rev-parse", "--verify", f"{args.base}^{{commit}}"), scratch / "base")
        change = export(working_tree(scratch), scratch / "change")
        sys.path.insert(0, str(change / "bench"))
        from workloads import FIXTURE_SEED, WORKLOADS, ensure_fixture

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        # the working tree's generator, cached where bench/run.py caches it
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        dataset = ensure_fixture(ROOT, workload, FIXTURE_SEED, env)

        pairs = []
        for k in range(args.pairs):
            seed = args.seed * 1000 + k
            specs = {
                side: {"dataset": str(dataset), "kind": workload.kind, "config": workload.config,
                       "seed": seed, "traced": False, "out": str(scratch / "runs" / f"{k}-{side}")}
                for side in ("base", "change")
            }
            order = [("base", base), ("change", change)][:: 1 if k % 2 == 0 else -1]
            procs = {side: launch(tree, specs[side]) for side, tree in order}
            results = {side: collect(proc, specs[side]) for side, proc in procs.items()}
            pairs.append((results["base"], results["change"]))
            print(f"pair {k} seed {seed} first {order[0][0]}: " + "  ".join(
                f"{side} " + (f"epoch_s={r['epoch_s']:.5f} run_s={r['run_s']:.3f}" if correct(r) else "FAILED")
                for side, r in results.items()), file=sys.stderr)

    report = summarize(pairs)
    for metric, row in report.items():
        lo, hi = row["ci95"]
        sides = "  ".join(
            f"{side} {row[side]['median']:.5g} iqr {row[side]['iqr']:.3g}" for side in ("base", "change")
        )
        print(f"{metric:12s} median ratio {row['median_ratio']:.4f}  95% [{lo:.4f}, {hi:.4f}]  "
              f"lower in {row['lower']}/{row['pairs']}  {sides}  {row['verdict']}")
    correctness = {side: [correct(pair[i]) for pair in pairs] for i, side in enumerate(("base", "change"))}
    for side, flags in correctness.items():
        print(f"{side} correct: {flags}")
    for k, pair in enumerate(pairs):
        for side, result in zip(("base", "change"), pair):
            if "crashed" in result:
                print(f"pair {k} {side} crashed: {result['crashed']}", file=sys.stderr)
            elif result["failures"]:
                print(f"pair {k} {side} failed: {'; '.join(result['failures'])}", file=sys.stderr)
    print(json.dumps({"base": args.base, "workload": args.workload, "seed": args.seed,
                      "metrics": report, "correct": correctness}))
    return 0 if all(all(flags) for flags in correctness.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload (see ``workloads.py``) in fresh child processes,
rounds of up to ``min(nproc, 2)`` at once. It starts another round only
while that round, as long as the last one, would end within ``S`` seconds;
there is always at least one. Every child runs the whole
pipeline once and checks its outputs (``child.py``). Times are the
children's CPU seconds (user + sys) with BLAS pinned to one thread.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the child runs, and ``metrics`` holds
the end-to-end metrics (``--trace 0``, medians over the children) or the
per-layer metrics of the traced children (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from workloads import EPOCH_METRICS, FIXTURE_SEED, RUN_METRICS, WORKLOADS, ensure_fixture

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
MAX_JOBS = 2  # a 10x child peaks near 0.9 GB; two at once is the memory budget

END_TO_END = [
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("train_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def cpu_ticks() -> list[int] | None:
    """Aggregate CPU tick counters from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already inside user
    return delta[7] / total if total > 0 and len(delta) > 7 else None


def host_facts() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": 1,
    }


def run_child(spec: dict, env: dict, deadline: float) -> dict:
    out = Path(spec["out"])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        with (out / "stderr.txt").open("wb") as stderr:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)],
                env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=stderr,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        result = json.loads((out / "result.json").read_text())
        if proc.returncode != 0 and "crashed" not in result:
            result["crashed"] = f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        result = {"crashed": "timed out"}
    except (OSError, ValueError) as exc:
        stderr = (out / "stderr.txt").read_text(errors="replace")[-2000:]
        result = {"crashed": f"{exc}\n{stderr}"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return result


def median(values) -> float:
    return float(statistics.median(values))


def summarize(results: list[dict], trace: bool) -> dict | None:
    """The result object, or None when no child run passed its checks.

    A child that crashed or failed a check counts as failed; only a failed
    check makes ``correct`` false. Metrics are medians over passing children.
    """
    wrong = [r for r in results if r.get("failures")]
    good = [r for r in results if "crashed" not in r and not r["failures"]]
    traced = [r for r in good if r["traced"]]
    plain = [r for r in good if not r["traced"]]
    if trace:
        if not traced:
            return None
        metrics = {
            name: {"value": median([r["layers"][name] for r in traced]), "unit": unit}
            for name, unit in RUN_METRICS + EPOCH_METRICS
        }
        if plain:
            overhead = median([r["run_s"] for r in traced]) / median([r["run_s"] for r in plain]) - 1.0
            metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        if not plain:
            return None
        metrics = {name: {"value": median([r[name] for r in plain]), "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(results) - len(good),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed: split, negatives, inits")
    parser.add_argument("--seconds", type=float, required=True, help="wall time in which rounds of child runs must end")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture-seed", type=int, default=FIXTURE_SEED, dest="fixture_seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trustnet" / "__init__.py").is_file():
        print(f"no trustnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env()
    dataset = ensure_fixture(ROOT, workload, args.fixture_seed, env)  # outside every timed region

    jobs = max(1, min(os.cpu_count() or 1, MAX_JOBS))
    work = ROOT / ".bench_cache" / "runs" / str(os.getpid())
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    ticks = cpu_ticks()
    results, index = [], 0
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        while True:
            round_start = time.monotonic()
            if args.trace:  # one traced and one untraced child on the same seed
                specs = [(args.seed * 1000 + index, traced) for traced in (True, False)]
                index += 1
            else:
                specs = [(args.seed * 1000 + index + slot, False) for slot in range(jobs)]
                index += jobs
            specs = [{
                "dataset": str(dataset),
                "kind": workload.kind,
                "config": workload.config,
                "seed": seed,
                "traced": traced,
                "out": str(work / f"{seed}-{int(traced)}"),
            } for seed, traced in specs]
            results += list(pool.map(lambda s: run_child(s, env, deadline), specs))
            now = time.monotonic()
            # start another round only if it should end within the measured time
            if now + (now - round_start) > min(started + args.seconds, deadline):
                break
    shutil.rmtree(work, ignore_errors=True)
    steal = steal_share(ticks, cpu_ticks())

    for r in results:
        if "crashed" in r:
            print(f"run crashed: {r['crashed']}", file=sys.stderr)
        elif r["failures"]:
            print(f"seed {r['seed']}: check failed: {'; '.join(r['failures'])}", file=sys.stderr)
        else:
            print(
                f"child seed={r['seed']} traced={int(r['traced'])} setup_s={r['setup_s']:.4f} "
                f"epoch_s={r['epoch_s']:.5f} train_s={r['train_s']:.4f} run_s={r['run_s']:.4f} "
                f"peak_rss_mb={r['peak_rss_mb']:.1f} accuracy={r['accuracy']:.2f} f1={r['f1']:.2f} "
                f"last_test_acc={r['last_test_acc']:.2f} grad_rel_err={r['grad_rel_err']:.2e} "
                f"kinks_held={r['kinks_held']}"
            )
    facts = host_facts()
    facts.update(
        workload=workload.name,
        seed=args.seed,
        fixture_seed=args.fixture_seed,
        jobs=jobs,
        wall_s=round(time.monotonic() - started, 3),
        steal_share=None if steal is None else round(steal, 4),
    )
    print("host: " + json.dumps(facts))
    report = summarize(results, bool(args.trace))
    if report is None:
        print("no child run passed its checks; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The ybekit benchmark: one workload per invocation, run from the root of a
checkout of the repository.

    python3 perfbench/run.py --workload landscape --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``figures``, ``landscape`` and
``verify``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload untraced and then traced, and prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of the run, with its meta data, is written to
``.perfbench_runs/``.

Exit code 0 means the benchmark ran; ``correct`` says whether every job
exited 0 and passed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, jobs_for, passes  # noqa: E402

# Set-up is timed in fresh processes, half before and half after the
# workload, so the sample spans the run rather than one moment of it.
SETUP_PROCESSES = 10
DEADLINE_S = 170.0
DIGESTS = HERE / "digests.json"

# Time from the start of a fresh interpreter until ybekit.cli is imported
# and its parser is built.  The child reports where ybekit came from.
SETUP_CODE = (
    "import ybekit.cli, sys\n"
    "ybekit.cli.build_parser()\n"
    "sys.stdout.write(ybekit.cli.__file__ + '\\n')\n"
    "sys.stdout.flush()\n"
)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    **{name: "s" if name.endswith("_s") else "count" for name in LAYER_METRICS},
    "landscape.extrema.evals_per_point": "ratio",
    "cli.bytes_out": "bytes",
    "cli.outputs_changed": "count",
    "trace.overhead_s": "s",
}


def workload_env() -> dict[str, str]:
    """The environment of every process the benchmark starts: this
    checkout's ybekit first on the path, no YBE_THREADS (the thread-pool
    knob), and single-threaded numpy."""
    env = dict(os.environ)
    env.pop("YBE_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


def measure_setup(env: dict[str, str], n: int, deadline: float) -> list[float]:
    """Fresh-interpreter set-up times of n processes, after one more that
    only warms the bytecode cache."""
    samples = []
    for _ in range(n + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            where = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=remaining(deadline))
        if proc.returncode != 0 or Path(where).resolve() != ROOT / "src" / "ybekit" / "cli.py":
            raise RuntimeError(f"set-up process failed or imported ybekit from {where!r}")
    return samples[1:]


def run_worker(args, base: Path, trace: int, n_passes: int, env, deadline: float) -> dict:
    """Run the workload in its own process."""
    shutil.rmtree(base, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(n_passes), "--size", args.size,
           "--trace", str(trace), "--rundir", str(base)]
    if args.corrupt:
        cmd.append("--corrupt")
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=remaining(deadline))
    return json.loads((base / "result.json").read_text())


def judge(args, base: Path, result: dict) -> dict:
    """Check each distinct output once against its oracle, then count the
    jobs that exited nonzero, raised or produced a failing output."""
    jobs = jobs_for(args.workload, args.seed, args.size)
    records = result["records"]
    verdicts: dict[tuple[int, str], str | None] = {}
    failures = []
    for r in records:
        key = (r["job"], r["digest"])
        if key not in verdicts:
            output = (base / "keep" / f"{r['job']}-{r['digest']}").read_bytes()
            verdicts[key] = oracles.check(jobs[r["job"]].oracle, output)
        problem = verdicts[key]
        if r["code"] != 0:
            problem = "raised, or never ran" if r["code"] is None else f"exit code {r['code']}"
        if problem is not None:
            failures.append(f"{jobs[r['job']].name}: {problem}")
    shutil.rmtree(base / "keep")

    recorded = json.loads(DIGESTS.read_text())
    digests = {jobs[k].key: d for k, d in verdicts if jobs[k].key is not None}
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "latencies": [r["latency"] for r in records if r["latency"] is not None],
        "bytes_per_pass": sum(r["bytes"] for r in records) / len(result["pass_walls"]),
        "digests": digests,
        "outputs_compared": sum(1 for key in digests if key in recorded),
        "outputs_changed": sorted({jobs[k].key for k, d in verdicts
                                   if jobs[k].key in recorded and recorded[jobs[k].key] != d}),
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest latency percentile with at least ten samples beyond it:
    (value, percentile, sample count).  With fewer than 11 samples, the
    maximum at percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(traced: dict, judged: dict, untraced_wall: float) -> tuple[dict, bool]:
    """Counts from the first traced pass (they repeat from pass to pass),
    times as medians over traced passes."""
    per_pass = traced["layers_per_pass"]
    counts = [m for m in LAYER_METRICS if LAYER_UNITS[m] != "s"]
    layers = {m: per_pass[0][m] if m in counts else statistics.median(p[m] for p in per_pass)
              for m in LAYER_METRICS}
    layers["cli.bytes_out"] = judged["bytes_per_pass"]
    layers["cli.outputs_changed"] = len(judged["outputs_changed"])
    layers["trace.overhead_s"] = statistics.median(traced["pass_walls"]) - untraced_wall
    repeat = all(p[m] == per_pass[0][m] for p in per_pass for m in counts)
    return layers, repeat


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--size", default="full", choices=["full", "tiny"],
                        help="tiny runs every job kind at toy sizes (smoke test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one output to show the oracle catches it (smoke test)")
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    for needed in (ROOT / "src" / "ybekit" / "cli.py", ROOT / "scripts" / "make_figure_data.py"):
        if not needed.is_file():
            sys.stderr.write(f"error: {needed} not found; run from a checkout of ybekit\n")
            return 2
    env = workload_env()
    setup = measure_setup(env, SETUP_PROCESSES // 2, deadline)
    # A traced run spends half its passes untraced, for the overhead.
    n_passes = passes(args.workload, args.seconds / 2.0 if args.trace else args.seconds)
    judged, raw = [], []
    for trace in range(args.trace + 1):
        base = RUNS / f"{args.workload}-seed{args.seed}-trace{trace}"
        raw.append(run_worker(args, base, trace, n_passes, env, deadline))
        judged.append(judge(args, base, raw[-1]))
    setup += measure_setup(env, SETUP_PROCESSES - len(setup), deadline)
    plain = judged[0]

    attempted = sum(j["attempted"] for j in judged)
    failed = sum(j["failed"] for j in judged)
    tail_s, tail_pct, n_jobs = tail(plain["latencies"])
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(raw[0]["pass_walls"]),
        "job_p50_s": statistics.median(plain["latencies"]),
        "job_tail_s": tail_s,
        "peak_rss_mb": raw[0]["peak_rss_mb"],
    }
    versions = raw[0]["versions"]
    report = {
        "meta": {
            "workload": args.workload, "seed": args.seed, "seed_used": args.workload != "figures",
            "seconds": args.seconds, "size": args.size, "trace": args.trace, "argv": sys.argv,
            "versions": versions, "nproc": os.cpu_count(), "machine": platform.machine(),
            "git_commit": git_commit(),
            "client": "closed loop: 1 client, 1 job in flight, 1 thread",
            "passes": n_passes,
        },
        "end_to_end": end_to_end,
        "job_tail": {"percentile": tail_pct, "samples": n_jobs},
        "fail_ratio": failed / attempted,
        "failures": [f for j in judged for f in j["failures"]],
        "outputs_changed": plain["outputs_changed"],
        "outputs_compared": plain["outputs_compared"],
        "digests": plain["digests"],
    }
    lines = [f"workload {args.workload}  seed {args.seed}  passes {n_passes}  "
             f"ybekit {versions['ybekit']}  "
             f"numpy {versions['numpy']}  python {versions['python']}"]
    notes = {"job_tail_s": f"  (p{tail_pct:.1f} of {n_jobs} jobs)"}
    for name, unit in END_TO_END.items():
        lines.append(f"{name:<12s} {end_to_end[name]:.6g} {unit}{notes.get(name, '')}")
    lines.append(f"fail_ratio   {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    metrics = {name: {"value": end_to_end[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    if args.trace:
        layers, report["counts_repeat"] = layer_metrics(raw[1], judged[1], end_to_end["wall_s"])
        report["layers"] = layers
        lines += [f"{name:<36s} {value:.6g} {LAYER_UNITS[name]}" for name, value in layers.items()]
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layers.items()}
    lines += [f"FAILED {f}" for f in report["failures"][:10]]

    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

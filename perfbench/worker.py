"""One workload process: a single closed-loop client that sends each job
to ``ybekit.cli.main`` only after the previous one returned.

    python3 perfbench/worker.py --workload verify --seed 0 --passes 20 \
        --trace 0 --rundir .perfbench_runs/verify-seed0-trace0

It warms up on toy-sized jobs, then runs ``--passes`` timed passes over
the workload's job list.  After each pass, outside the timed region, it
hashes every job's output and saves the first copy of each distinct output
under ``<rundir>/keep`` for ``run.py`` to check against its oracle.  The result
goes to ``<rundir>/result.json``; a traced run also writes its spans to
``<rundir>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import SIZES, Job, jobs_for  # noqa: E402


def import_ybekit():
    """Import ybekit and insist that it is this checkout's source tree."""
    import ybekit
    import ybekit.cli

    where = Path(ybekit.__file__).resolve()
    if ROOT / "src" / "ybekit" != where.parent:
        raise SystemExit(f"ybekit imported from {where}, not from {ROOT / 'src'}")
    return ybekit


class Client:
    """Sends jobs one at a time and records what each one did."""

    def __init__(self, cli_main, tracer):
        self.cli_main = cli_main
        self.tracer = tracer
        self.job_id = 0

    def call(self, argv: list[str]) -> tuple[int | None, float, str]:
        """Time one call into ybekit.cli.main: (exit code, latency, stdout).
        A raised exception gives exit code None."""
        out = io.StringIO()
        if self.tracer is not None:
            self.tracer.job = self.job_id
            span = self.tracer.open("cli", "main")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a failed job, not a failed client
            code = None
            out.write(f"\n{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.close(span)
        self.job_id += 1
        return code, latency, out.getvalue()

    def run_jobs(self, jobs: list[Job], passdir: Path) -> list[tuple]:
        """One pass over a job list: (job index, code, latency, output) each."""
        done = []
        for k, job in enumerate(jobs):
            argv = list(job.argv)
            path = passdir / f"{k}.out"
            if job.output == "file":
                argv += ["--output", str(path)]
            code, latency, stdout = self.call(argv)
            done.append((k, code, latency, path if job.output == "file" else stdout))
        return done


class FigureScript:
    """Runs scripts/make_figure_data.py in-process as a user would; its
    seven CLI calls are the jobs, timed where the script calls ybekit."""

    def __init__(self, client: Client, jobs: list[Job], grid: int):
        spec = importlib.util.spec_from_file_location(
            "make_figure_data", ROOT / "scripts" / "make_figure_data.py")
        self.script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.script)
        self.script.ybekit_main = self._call
        self.client = client
        self.index = {job.name: k for k, job in enumerate(jobs)}
        self.grid = grid
        self.done: dict[int, tuple] = {}

    def _call(self, argv: list[str]) -> int:
        code, latency, _ = self.client.call(argv)
        path = Path(argv[argv.index("--output") + 1])
        self.done[self.index[path.name]] = (code, latency, path)
        return 0 if code is None else code

    def run_jobs(self, jobs: list[Job], passdir: Path) -> list[tuple]:
        self.done = {}
        argv_before = sys.argv
        sys.argv = ["make_figure_data.py", "--outdir", str(passdir), "--grid", str(self.grid)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.script.main()
        except SystemExit:
            pass  # a job failed and the script stopped; the rest count as failed
        finally:
            sys.argv = argv_before
        return [(k, *self.done.get(k, (None, None, passdir / job.name)))
                for k, job in enumerate(jobs)]


def keep_output(keep: Path, k: int, output: Path | str, corrupt: bool) -> tuple[str, int]:
    """Hash one job's output and save the first copy of each distinct one
    on disk, so kept outputs do not count in peak RSS."""
    if isinstance(output, Path):
        data = output.read_bytes() if output.exists() else b""
    else:
        data = output.encode()
    if corrupt:
        data = _corrupt(data)
    digest = hashlib.sha256(data).hexdigest()
    kept = keep / f"{k}-{digest}"
    if not kept.exists():
        kept.write_bytes(data)
    return digest, len(data)


def _corrupt(data: bytes) -> bytes:
    """Prefix a digit to a field in the middle of an output (smoke test only)."""
    i = data.find(b",", len(data) // 2) + 1
    return data[:i] + b"9" + data[i:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--rundir", required=True)
    args = parser.parse_args()

    ybekit = import_ybekit()
    rundir = Path(args.rundir)
    keep = rundir / "keep"
    keep.mkdir(parents=True)
    jobs = jobs_for(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    client = Client(ybekit.cli.main, tracer)
    runner = (FigureScript(client, jobs, SIZES[args.size]["figure_grid"])
              if args.workload == "figures" else client)

    # Warm up every code path on toy sizes, then forget it.
    warm = jobs_for("landscape", args.seed, "tiny") + jobs_for("verify", args.seed, "tiny")
    (rundir / "warmup").mkdir()
    client.run_jobs(warm, rundir / "warmup")
    shutil.rmtree(rundir / "warmup")
    client.job_id = 0
    if tracer is not None:
        tracer.spans.clear()

    records, pass_walls, pass_spans = [], [], []
    for p in range(args.passes):
        passdir = rundir / f"pass{p}"
        passdir.mkdir()
        lo = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        done = runner.run_jobs(jobs, passdir)
        pass_walls.append(time.perf_counter() - t0)
        pass_spans.append((lo, len(tracer.spans) if tracer else 0))
        for k, code, latency, output in done:
            digest, size = keep_output(keep, k, output, args.corrupt and p == 0 and k == 0)
            records.append({"job": k, "code": code, "latency": latency,
                            "digest": digest, "bytes": size})
        shutil.rmtree(passdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "pass_walls": pass_walls,
        "records": records,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"ybekit": ybekit.__version__, "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    if tracer is not None:
        result["layers_per_pass"] = [tracing.layer_totals(tracer.spans, lo, hi)
                                     for lo, hi in pass_spans]
        with open(rundir / "spans.jsonl", "w") as handle:
            handle.write(json.dumps(["id", "layer", "func", "start", "end", "parent", "job",
                                     "kernel_calls", "kernel_s", "kron_calls"]) + "\n")
            for i, s in enumerate(tracer.spans):
                handle.write(json.dumps([i, s.layer, s.func, s.start, s.end, s.parent, s.job,
                                         s.kernel_calls, s.kernel_s, s.kron_calls]) + "\n")
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Job lists of the three benchmark workloads.

A job is one call into ``ybekit.cli.main``.  Each job carries the argv the
client sends and an oracle spec that ``oracles.check`` uses to verify the
job's output against closed forms.  Inputs depend only on the workload
name, the seed and the size, so the same seed gives the same jobs.

``figures`` is the exception: its jobs are the seven CLI calls that
``scripts/make_figure_data.py`` makes, so the client runs the script and
the seed is unused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from oracles import BETA_STAR, three_tangle

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0
FN_2D = ("l1_S3", "l1_Sprime", "vn_Sprime")

# Per-size knobs.  "full" is what the benchmark measures; "tiny" keeps the
# smoke test short while running every job kind.
SIZES = {
    "full": dict(big=400, mid=200, small=40, n_small=12, section=2000, n_sections=6,
                 wigner=10000, xi=2000, samples=1000, random=1000, states=24,
                 figure_grid=200),
    "tiny": dict(big=24, mid=16, small=8, n_small=2, section=50, n_sections=2,
                 wigner=100, xi=40, samples=20, random=20, states=3,
                 figure_grid=20),
}

WORKLOADS = ("figures", "landscape", "verify")

# Seconds one full-size pass takes on the reference machine (2 cores,
# Python 3.11, numpy 2.4).  ``passes`` turns a run length into a fixed
# number of passes, so both sides of a comparison do the same work and the
# job-latency tail always sits at the same rank.
PASS_SECONDS = {"figures": 2.5, "landscape": 4.5, "verify": 1.0}
MIN_PASSES = 3


def passes(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``output`` is "file" (the client appends --output)
    or "stdout"; ``key`` names the job's output in ``digests.json`` (the
    argv, which holds every seed-chosen input), or is None when the output
    is not recorded."""

    name: str
    argv: tuple[str, ...]
    output: str
    oracle: dict = field(compare=False)
    key: str | None = None


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _axis_arg(start: float, stop: float, n: int) -> str:
    return f"{fmt(start)}:{fmt(stop)}:{n}"


def _surface(fn: str, eta: tuple, beta: tuple, fmt_: str) -> dict:
    return {"kind": "surface", "fn": fn, "format": fmt_, "eta": eta, "beta": beta}


def _section(fn: str, fixed: str, value: float, axis: tuple, fmt_: str) -> dict:
    return {"kind": "section", "fn": fn, "format": fmt_, "fixed": fixed, "value": value,
            "axis": axis}


def _curve(fn: str, n: int, fmt_: str) -> dict:
    return {"kind": "curve", "fn": fn, "format": fmt_, "axis": (0.0, HALF_PI, n)}


def _landscape_job(name: str, spec: dict) -> Job:
    """The `ybekit landscape` call whose output ``spec`` describes."""
    argv = ["landscape", "--fn", spec["fn"]]
    if spec["kind"] == "surface":
        argv += ["--eta", _axis_arg(*spec["eta"]), "--beta", _axis_arg(*spec["beta"])]
    elif spec["kind"] == "section":
        moving = "eta" if spec["fixed"] == "beta" else "beta"
        argv += ["--section", f"{spec['fixed']}={fmt(spec['value'])}",
                 f"--{moving}", _axis_arg(*spec["axis"])]
    else:
        argv += ["--theta", _axis_arg(*spec["axis"])]
    argv += ["--format", spec["format"]]
    return Job(name, tuple(argv), "file", spec, " ".join(argv))


def landscape_jobs(seed: int, size: str = "full") -> list[Job]:
    """Bulk emission without extrema: large and small grids, sections and
    curves, each surface kind in both CSV and JSON.

    The seed places the small grids and the sections; which function each
    one samples is fixed, so every seed does the same amount of work.  The
    18 small jobs, a third per function, are most of the list, so the
    median job latency falls among many samples of similar cost rather
    than between two jobs of very different cost."""
    s = SIZES[size]
    rng = np.random.default_rng(seed)
    eta_full = (0.0, TWO_PI)
    beta_full = (-HALF_PI, HALF_PI)
    long, jobs = [], []
    for fn, n in (("l1_S3", s["big"]), ("l1_Sprime", s["mid"]), ("vn_Sprime", s["mid"])):
        for fmt_ in ("csv", "json"):
            long.append(_landscape_job(f"surface.{fn}.{n}.{fmt_}",
                                       _surface(fn, (*eta_full, n), (*beta_full, n), fmt_)))
    for fn, n in (("l1_wigner", s["wigner"]), ("vn_xi", s["xi"])):
        for fmt_ in ("csv", "json"):
            long.append(_landscape_job(f"curve.{fn}.{n}.{fmt_}", _curve(fn, n, fmt_)))
    for k in range(s["n_small"]):
        fn = FN_2D[k % len(FN_2D)]
        w_eta, w_beta = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.2)
        eta0 = rng.uniform(0.0, TWO_PI - w_eta)
        beta0 = rng.uniform(-HALF_PI, HALF_PI - w_beta)
        fmt_ = ("csv", "json")[k % 2]
        jobs.append(_landscape_job(f"subgrid{k}.{fn}.{fmt_}",
                                   _surface(fn, (eta0, eta0 + w_eta, s["small"]),
                                            (beta0, beta0 + w_beta, s["small"]), fmt_)))
    for k in range(s["n_sections"]):
        fn = FN_2D[k % len(FN_2D)]
        fixed = ("beta", "eta")[k % 2]
        if fixed == "beta":
            value, moving = rng.uniform(*beta_full), (*eta_full, s["section"])
        else:
            value, moving = rng.uniform(*eta_full), (*beta_full, s["section"])
        fmt_ = ("csv", "json")[(k // 2) % 2]
        jobs.append(_landscape_job(f"section{k}.{fn}.{fixed}.{fmt_}",
                                   _section(fn, fixed, value, moving, fmt_)))
    return _interleave(long, jobs)


def verify_jobs(seed: int, size: str = "full") -> list[Job]:
    """Matrix builders and entanglement, no landscape code: the residual
    suites, a random and a named reduction, and many short state queries."""
    s = SIZES[size]
    rng = np.random.default_rng(seed)
    long = [
        Job("verify.all.json",
            ("verify", "--suite", "all", "--format", "json", "--seed", str(seed),
             "--samples", str(s["samples"])),
            "file", {"kind": "verify", "samples": s["samples"]}),
        Job("reduce.random", ("reduce", "--random", str(s["random"]), "--seed", str(seed)),
            "stdout", {"kind": "reduce_random", "count": s["random"]}),
    ]
    jobs = [
        Job("reduce.thetas.ghz",
            ("reduce", "--thetas", f"0,{fmt(math.pi / 4)},{fmt(math.pi / 4)}"),
            "stdout", {"kind": "reduce_thetas"}),
    ]
    named = [
        ("ghz", (0.0, math.pi / 4, math.pi / 4)),
        ("w", (math.pi / 8, math.atan(math.sqrt(2.0)), 3 * math.pi / 8)),
    ]
    for label, triple in named:
        for fmt_ in ("text", "json"):
            jobs.append(_state_thetas(f"state.{label}.{fmt_}", triple, fmt_))
    for k in range(s["states"]):
        fmt_ = ("text", "json")[k % 2]
        # Generic points: keep the 3-tangle well clear of the classification
        # threshold so the expected class is unambiguous.
        while True:
            eta, beta = rng.uniform(0.0, TWO_PI), rng.uniform(-HALF_PI, HALF_PI)
            if three_tangle(eta, beta) > 1e-2:
                break
        jobs.append(Job(f"state.point{k}.{fmt_}",
                        ("state", "--eta", fmt(eta), "--beta", fmt(beta), "--format", fmt_),
                        "stdout", {"kind": "state", "format": fmt_, "thetas": None}))
        t1, t3 = rng.uniform(-1.3, 1.3, size=2)
        t2 = math.atan2(math.sin(t1 + t3), math.cos(t1 - t3))
        jobs.append(_state_thetas(f"state.triple{k}.{fmt_}", (t1, t2, t3), fmt_))
    return _interleave(long, jobs)


def _interleave(long: list[Job], short: list[Job]) -> list[Job]:
    """Spread the short jobs evenly after the long ones.  The short jobs set
    the median job latency, and spread out they sample the machine across
    the whole pass rather than in one burst."""
    out, taken = [], 0
    for i, job in enumerate(long, start=1):
        upto = round(i * len(short) / len(long))
        out += [job, *short[taken:upto]]
        taken = upto
    return out


def _state_thetas(name: str, triple: tuple, fmt_: str) -> Job:
    raw = ",".join(fmt(t) for t in triple)
    return Job(name, ("state", "--thetas", raw, "--format", fmt_), "stdout",
               {"kind": "state", "format": fmt_, "thetas": [float(t) for t in triple]})


def figure_jobs(size: str = "full") -> list[Job]:
    """The seven outputs of the figure-data script, in the order it writes
    them.  The argv is the script's; only the oracle and key live here."""
    n = SIZES[size]["figure_grid"]
    outputs = [
        ("two_qubit_l1.csv", _curve("l1_wigner", 500, "csv")),
        ("two_qubit_entropy.csv", _curve("vn_xi", 500, "csv")),
        ("l1_surface.csv", _surface("l1_S3", (0.0, TWO_PI, n), (-HALF_PI, HALF_PI, n), "csv")),
        ("l1_section_beta_star.csv",
         _section("l1_S3", "beta", BETA_STAR, (0.0, TWO_PI, 1000), "csv")),
        ("l1_section_eta_half_pi.csv",
         _section("l1_S3", "eta", HALF_PI, (-HALF_PI, HALF_PI, 1000), "csv")),
        ("entropy_section_beta_star.csv",
         _section("vn_Sprime", "beta", BETA_STAR, (0.0, TWO_PI, 1000), "csv")),
        ("extrema.csv", {"kind": "extrema_l1"}),
    ]
    return [Job(name, (), "file", spec, f"figures grid={n} {name}") for name, spec in outputs]


def jobs_for(workload: str, seed: int, size: str = "full") -> list[Job]:
    if workload == "figures":
        return figure_jobs(size)
    if workload == "landscape":
        return landscape_jobs(seed, size)
    if workload == "verify":
        return verify_jobs(seed, size)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")

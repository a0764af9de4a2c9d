"""Command-line surface: relation suites, landscape data, state reports.

Subcommands
-----------
verify     run TL / braid / YBE / reduction residual suites (exit 1 on failure)
landscape  emit grid, section or curve samples as CSV or JSON
extrema    locate critical points and label the states sitting on them
state      report amplitudes and entanglement measures for one parameter point
reduce     cross-check the 8x8 factorized matrix against its 2x2 fusion form

All numbers are emitted with 17 significant digits so downstream plotting
is lossless, and a fixed seed makes randomized suites byte-reproducible.
Exit codes: 0 success, 1 tolerance failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .checks import SUITES, random_reduction, worst
from .entanglement import classify_slocc, entanglement_report
from .fusionbasis import (
    LeakageError,
    embed_three_body,
    fusion_basis_type2,
    reduce_operator,
)
from .landscape import (
    AxisSpec,
    FUNCTIONS,
    find_critical_points_1d,
    find_critical_points_2d,
    get_function,
    sample_curve,
    sample_surface,
    section,
)
from .tensor import max_diff_up_to_phase
from .threebody import (
    AngleTriple,
    ConstraintViolation,
    ScatterParams,
    angles_to_params,
    fusion_form,
    product_form,
    state_from_params,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2


def fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering."""
    return format(float(x), ".17g")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ybekit-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


def parse_axis(raw: str, name: str) -> AxisSpec:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"--{name} must look like start:stop:count, got {raw!r}")
    start, stop = float(parts[0]), float(parts[1])
    n = int(parts[2])
    return AxisSpec(name, start, stop, n)


def number(kind: type = float, minimum: int | None = None, positive: bool = False):
    """argparse type for a finite ``kind`` value no smaller than ``minimum``,
    and above 0 if ``positive``: a NaN slips through every ``<=`` gate, a
    count below the minimum passes vacuously, and a bracket search to a
    tolerance of 0 never ends, so all three are usage errors (exit 2)."""
    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            value = math.nan
        if (not math.isfinite(value) or (minimum is not None and value < minimum)
                or (positive and value <= 0)):
            what = "an integer" if kind is int else "a finite number"
            bound = " > 0" if positive else "" if minimum is None else f" >= {minimum}"
            raise argparse.ArgumentTypeError(f"expected {what}{bound}, got {raw!r}")
        return value
    return parse


def parse_thetas(raw: str) -> AngleTriple:
    """argparse type for ``t1,t2,t3``: three finite angles."""
    parts = raw.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"needs three comma-separated angles, got {raw!r}")
    return AngleTriple(*map(number(), parts))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rows = [check for name in names for check in SUITES[name](args)]

    failed = sum(not c.passed for c in rows)
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name:<64s} "
             f"residual {fmt(c.residual):>24s}  tol {c.tol:.1e}" for c in rows]
    summary = f"{len(rows) - failed}/{len(rows)} checks passed"
    text = "\n".join(lines + [summary]) + "\n"

    if args.format == "json":
        payload = {
            "checks": [
                # strict JSON has no NaN: a non-finite residual is written as null
                {"name": c.name,
                 "residual": float(c.residual) if math.isfinite(c.residual) else None,
                 "tol": float(c.tol), "pass": c.passed}
                for c in rows
            ],
            "meta": {"seed": args.seed, "tol": args.tol, "version": __version__},
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    _emit(args.output, text)
    if args.output is not None:
        sys.stdout.write(summary + "\n")
    return EXIT_OK if failed == 0 else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def _reused_strings(values: np.ndarray, render) -> np.ndarray | None:
    """One string per value of ``values`` in flat order, as an object
    array, with ``render`` (floats to strings) called once over the
    distinct floats and each string reused wherever its value repeats; or
    None when more than 2/3 of the values are distinct, where the lookups
    cost about what the formatting they save does.  Values are keyed by bit
    pattern, which keeps -0.0 and 0.0 apart.  A sort and count decides
    before any lookup is built."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    ordered = np.sort(bits)
    if 3 * (np.count_nonzero(ordered[1:] != ordered[:-1]) + 1) > 2 * bits.size:
        return None
    distinct, where = np.unique(bits, return_inverse=True)
    return np.array(render(distinct.view(np.float64).tolist()), dtype=object)[where]


def _fmt_floats(xs: list[float]) -> list[str]:
    """:func:`fmt` of each float, in one ``%.17g`` pass."""
    return ("%.17g\n" * len(xs) % tuple(xs)).split("\n")[:-1]


def _json_floats(xs: list[float]) -> list[str]:
    """Each float as ``json.dumps`` renders it inside an array."""
    return json.dumps(xs, separators=(",", ":"))[1:-1].split(",")


def _csv_numbers(columns: dict[str, np.ndarray]) -> str:
    """CSV of equal-length float columns, keyed by header, formatted in one
    ``%`` pass; each cell reads exactly as :func:`fmt` renders it.  A column
    whose values repeat enough is formatted once per distinct value and
    its strings go in through ``%s`` (:func:`_reused_strings`), so a
    section's fixed coordinate is one string; any other column goes in as
    floats through ``%.17g``."""
    flat = [np.ravel(c) for c in columns.values()]
    table = np.empty((flat[0].size, len(flat)), dtype=object)
    specs = []
    for k, column in enumerate(flat):
        strings = _reused_strings(column, _fmt_floats)
        specs.append("%.17g" if strings is None else "%s")
        table[:, k] = column if strings is None else strings
    row = ",".join(specs) + "\n"
    return ",".join(columns) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def _csv_grid(etas: np.ndarray, betas: np.ndarray, values: np.ndarray) -> str:
    """CSV of a sampled surface, the bytes of :func:`_csv_numbers` over its
    ``ij`` meshgrid, with each axis coordinate formatted once and reused on
    every row it appears in.  The values get one ``%.17g`` pass, or, when
    enough of them repeat, are formatted once per distinct value and joined
    with the coordinates, each row led by its newline."""
    strings = _reused_strings(values, _fmt_floats)
    if strings is None:
        cells = [fmt(b) + ",%.17g\n" for b in betas]
        rows = "".join(f"{e}," + f"{e},".join(cells) for e in map(fmt, etas))
        return "eta,beta,value\n" + rows % tuple(values.ravel().tolist())
    table = np.empty((etas.size, betas.size, 3), dtype=object)
    table[:, :, 0] = np.array([f"\n{fmt(e)}," for e in etas], dtype=object)[:, None]
    table[:, :, 1] = np.array([fmt(b) + "," for b in betas], dtype=object)
    table[:, :, 2] = strings.reshape(values.shape)
    return "eta,beta,value" + "".join(table.ravel().tolist()) + "\n"


def _json_text(fn: str, axes: list[AxisSpec], values: np.ndarray, meta: dict) -> str:
    """The landscape JSON document, rendered by ``json.dumps``.  When
    enough values repeat, ``json`` renders each distinct value once
    (:func:`_reused_strings`) and the strings are spliced in as the
    ``values`` array, which sorts last among the keys."""
    strings = _reused_strings(values, _json_floats)
    payload = {
        "fn": fn,
        "axes": [
            {"name": a.name, "start": a.start, "stop": a.stop, "n": a.n} for a in axes
        ],
        "values": values.reshape(-1).tolist() if strings is None else [],
        "meta": dict(meta, version=__version__),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if strings is not None:
        head, _, tail = text.rpartition('"values":[]')
        text = f'{head}"values":[{",".join(strings.tolist())}]{tail}'
    return text + "\n"


def _check_axis_flags(args, spec) -> None:
    """Axis flags that the function's arity has no use for, or that name the
    axis a ``--section`` fixes, are usage errors, not silently ignored."""
    unused = ("theta",) if spec.arity == 2 else ("eta", "beta", "section")
    for flag in unused:
        if getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag} does not apply to the "
                             f"{spec.arity}-parameter function {spec.tag}")
    fixed = (getattr(args, "section", None) or "").partition("=")[0].strip()
    if fixed in ("eta", "beta") and getattr(args, fixed) is not None:
        raise ValueError(f"--{fixed} does not apply: --section {args.section} fixes that axis")


def cmd_landscape(args) -> int:
    spec = get_function(args.fn)
    _check_axis_flags(args, spec)
    meta = {"seed": None, "tol": None}

    if spec.arity == 1:
        axes = [_sampling_axis(args, spec, "theta")]
        values = sample_curve(args.fn, axes[0])[:, 1]
        columns = {"theta": axes[0].points(), "value": values}
    elif args.section:
        fixed_axis, _, raw_value = args.section.partition("=")
        fixed_axis = fixed_axis.strip()
        if fixed_axis not in ("eta", "beta") or not raw_value:
            raise ValueError(f"--section must be eta=VALUE or beta=VALUE, got {args.section!r}")
        fixed_value = float(raw_value)
        if not math.isfinite(fixed_value):
            raise ValueError(f"--section needs a finite value, got {args.section!r}")
        axes = [_sampling_axis(args, spec, "eta" if fixed_axis == "beta" else "beta")]
        values = section(args.fn, fixed_axis, fixed_value, axes[0])[:, 1]
        meta = dict(meta, section=f"{fixed_axis}={fmt(fixed_value)}")
        coords = {axes[0].name: axes[0].points(), fixed_axis: np.full(axes[0].n, fixed_value)}
        columns = {"eta": coords["eta"], "beta": coords["beta"], "value": values}
    else:
        axes = [_sampling_axis(args, spec, "eta"), _sampling_axis(args, spec, "beta")]
        values = sample_surface(args.fn, *axes).values
        columns = None  # written by _csv_grid

    if args.format == "json":
        text = _json_text(args.fn, axes, values, meta)
    elif columns is None:
        text = _csv_grid(axes[0].points(), axes[1].points(), values)
    else:
        text = _csv_numbers(columns)
    _emit(args.output, text)
    return EXIT_OK


def _sampling_axis(args, spec, name: str) -> AxisSpec:
    """The --NAME axis, or the function's default domain for that axis."""
    raw = getattr(args, name)
    if raw:
        return parse_axis(raw, name)
    lo, hi = spec.default_domain[1 if name == "beta" else 0]
    return AxisSpec(name, lo, hi, 500 if name == "theta" else 200)


# ---------------------------------------------------------------------------
# extrema
# ---------------------------------------------------------------------------

def cmd_extrema(args) -> int:
    spec = get_function(args.fn)
    _check_axis_flags(args, spec)
    if spec.arity == 2:
        eta_dom = _axis_bounds(args.eta) if args.eta else None
        beta_dom = _axis_bounds(args.beta) if args.beta else None
        points = find_critical_points_2d(
            args.fn, eta_dom, beta_dom, coarse_n=args.coarse, refine_tol=args.tol
        )
        header = ["eta", "beta", "value", "kind", "smooth", "slocc_class"]
        rows = []
        for p in points:
            label = classify_slocc(state_from_params(ScatterParams(*p.location)))
            rows.append(
                [fmt(p.location[0]), fmt(p.location[1]), fmt(p.value),
                 p.kind, str(p.smooth).lower(), label]
            )
    else:
        dom = _axis_bounds(args.theta) if args.theta else None
        points = find_critical_points_1d(
            args.fn, dom, coarse_n=args.coarse, refine_tol=args.tol
        )
        header = ["theta", "value", "kind", "smooth"]
        rows = [
            [fmt(p.location[0]), fmt(p.value), p.kind, str(p.smooth).lower()]
            for p in points
        ]
    if args.format == "json":
        payload = {
            "fn": args.fn,
            "points": [dict(zip(header, row)) for row in rows],
            "meta": {"coarse": args.coarse, "tol": args.tol, "version": __version__},
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    else:
        text = _csv_text(header, rows)
    _emit(args.output, text)
    return EXIT_OK


def _axis_bounds(raw: str) -> tuple[float, float]:
    parts = raw.split(":")
    if len(parts) < 2:
        raise ValueError(f"domain must look like start:stop[:count], got {raw!r}")
    return float(parts[0]), float(parts[1])


# ---------------------------------------------------------------------------
# state / reduce
# ---------------------------------------------------------------------------

def _params_from_args(args) -> tuple[ScatterParams, AngleTriple | None]:
    if args.thetas:
        return angles_to_params(args.thetas, args.tol), args.thetas
    if args.eta is None or args.beta is None:
        raise ValueError("provide either --thetas or both --eta and --beta")
    return ScatterParams(args.eta, args.beta).canonical(), None


def cmd_state(args) -> int:
    params, triple = _params_from_args(args)
    psi = state_from_params(params)
    # Classification thresholds follow the input tolerance: angles typed at
    # a few decimals shift the invariants by the same scale.
    report = entanglement_report(psi, tol=max(args.tol, 1e-6))

    if args.format == "json":
        payload = {
            "eta": params.eta,
            "beta": params.beta,
            "thetas": [triple.t1, triple.t2, triple.t3] if triple else None,
            "amplitudes": [[float(a.real), float(a.imag)] for a in psi],
            "l1": report.l1,
            "vn_entropies_bits": {str(k + 1): v for k, v in report.vn_entropies.items()},
            "three_tangle": report.three_tangle,
            "slocc_class": report.slocc_class,
            "meta": {"version": __version__},
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return EXIT_OK

    lines = [f"eta  = {fmt(params.eta)}", f"beta = {fmt(params.beta)}"]
    if triple:
        lines.append(f"thetas = ({fmt(triple.t1)}, {fmt(triple.t2)}, {fmt(triple.t3)})")
    lines.append("amplitudes:")
    for idx, amp in enumerate(psi):
        if abs(amp) > 1e-15:
            lines.append(f"  |{idx:03b}>  {fmt(amp.real)} {'+' if amp.imag >= 0 else '-'} {fmt(abs(amp.imag))}j")
    lines.append(f"l1 norm      = {fmt(report.l1)}")
    for k in range(3):
        lines.append(f"entropy cut {k+1}|rest = {fmt(report.vn_entropies[k])} bits")
    lines.append(f"three-tangle = {fmt(report.three_tangle)}")
    lines.append(f"class        = {report.slocc_class}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _format_matrix(m: np.ndarray) -> list[str]:
    out = []
    for row in m:
        cells = ", ".join(
            f"{v.real:+.12f}{v.imag:+.12f}j" for v in row
        )
        out.append(f"  [{cells}]")
    return out


def cmd_reduce(args) -> int:
    if args.random:
        residual = worst(random_reduction(args.random, args.seed))
        ok = residual <= args.tol
        sys.stdout.write(
            f"{args.random} random constrained triples: max residual {fmt(residual)} "
            f"(tol {args.tol:.1e}) {'PASS' if ok else 'FAIL'}\n"
        )
        return EXIT_OK if ok else EXIT_TOLERANCE

    if not args.thetas:
        raise ValueError("provide --thetas t1,t2,t3 or --random N")
    triple = args.thetas
    triple.check(args.constraint_tol)
    # The residual of verify_basis_reduction, from the one product and
    # reduction that are printed, at the user's constraint tolerance.
    reduced = reduce_operator(embed_three_body(product_form(triple, args.constraint_tol)),
                              fusion_basis_type2(0.0))
    params = angles_to_params(triple, args.constraint_tol)
    closed = fusion_form(params)
    residual = max_diff_up_to_phase(reduced, closed.conj())
    lines = ["reduced 8x8 product on the fusion basis:"]
    lines += _format_matrix(reduced)
    lines.append("closed 2x2 form at (eta, beta) = "
                 f"({fmt(params.eta)}, {fmt(params.beta)}):")
    lines += _format_matrix(closed)
    lines.append("(the reduced matrix realizes the closed form with reversed "
                 "angle orientation, i.e. entrywise conjugation)")
    ok = residual <= args.tol
    lines.append(f"residual {fmt(residual)} (tol {args.tol:.1e}) {'PASS' if ok else 'FAIL'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybekit",
        description="Braid/TL representations, Yang-Baxter families, "
                    "three-body scattering and l1-norm landscapes.",
    )
    parser.add_argument("--version", action="version", version=f"ybekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run relation/residual suites")
    p_verify.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p_verify.add_argument("--family", default="all",
                          choices=["type1", "type2", "all"],
                          help="restrict the YBE suite to one family")
    p_verify.add_argument("--samples", type=number(int, minimum=1), default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=number(), default=1e-12)
    p_verify.add_argument("--perturb", type=number(), default=0.0,
                          help="perturb a TL generator entry (failure-path demo)")
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--format", default="text", choices=["text", "json"])
    p_verify.set_defaults(func=cmd_verify)

    p_land = sub.add_parser("landscape", help="emit grid/section/curve samples")
    p_land.add_argument("--fn", required=True, choices=sorted(FUNCTIONS))
    p_land.add_argument("--eta", default=None, help="start:stop:count")
    p_land.add_argument("--beta", default=None, help="start:stop:count")
    p_land.add_argument("--theta", default=None, help="start:stop:count (1-D functions)")
    p_land.add_argument("--section", default=None, help="eta=VALUE or beta=VALUE")
    p_land.add_argument("--output", default=None)
    p_land.add_argument("--format", default="csv", choices=["csv", "json"])
    p_land.set_defaults(func=cmd_landscape)

    p_ext = sub.add_parser("extrema", help="find and classify critical points")
    p_ext.add_argument("--fn", default="l1_S3", choices=sorted(FUNCTIONS))
    p_ext.add_argument("--eta", default=None, help="start:stop domain")
    p_ext.add_argument("--beta", default=None, help="start:stop domain")
    p_ext.add_argument("--theta", default=None, help="start:stop domain (1-D)")
    p_ext.add_argument("--coarse", type=int, default=400)
    p_ext.add_argument("--tol", type=number(positive=True), default=1e-8)
    p_ext.add_argument("--output", default=None)
    p_ext.add_argument("--format", default="csv", choices=["csv", "json"])
    p_ext.set_defaults(func=cmd_extrema)

    p_state = sub.add_parser("state", help="report one scattering output state")
    p_state.add_argument("--eta", type=number(), default=None)
    p_state.add_argument("--beta", type=number(), default=None)
    p_state.add_argument("--thetas", type=parse_thetas, default=None,
                         help="t1,t2,t3 on the constraint line")
    p_state.add_argument("--tol", type=number(), default=1e-4,
                         help="input tolerance: bounds the --thetas constraint "
                              "residual and the classification thresholds")
    p_state.add_argument("--format", default="text", choices=["text", "json"])
    p_state.set_defaults(func=cmd_state)

    p_red = sub.add_parser("reduce", help="cross-check the fusion-space reduction")
    p_red_mode = p_red.add_mutually_exclusive_group()
    p_red_mode.add_argument("--thetas", type=parse_thetas, default=None,
                            help="t1,t2,t3 on the constraint line")
    p_red_mode.add_argument("--random", type=number(int, minimum=0), default=0,
                            help="check N random constrained triples instead")
    p_red.add_argument("--seed", type=int, default=0)
    p_red.add_argument("--tol", type=number(), default=1e-10)
    p_red.add_argument("--constraint-tol", type=number(), default=1e-4)
    p_red.set_defaults(func=cmd_reduce)

    return parser


_VALUE_FLAGS = {"--eta", "--beta", "--theta", "--thetas", "--perturb"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flags with values that start with a minus sign (e.g. ranges like
    ``--beta -1.57:1.57:200``, or ``--perturb -1e-3``, whose exponent form
    argparse does not read as a number) into ``--flag=value`` form so
    argparse does not mistake the value for an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if len(nxt) > 1 and nxt[0] == "-" and (nxt[1].isdigit() or nxt[1] == "."):
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser every :func:`main` call in a process uses, since
    building it takes longer than parsing and running a short query.  Reuse
    is safe because parsing leaves it as built: each ``parse_args`` fills a
    new namespace, no default is mutable, and usage and error text is
    formatted when it is printed."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _shared_parser().parse_args(_merge_negative_values(list(argv)))
    try:
        return args.func(args)
    except ConstraintViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except LeakageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TOLERANCE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

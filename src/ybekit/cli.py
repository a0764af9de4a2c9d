"""Command-line surface: relation suites, landscape data, state reports.

Subcommands
-----------
verify     run TL / braid / YBE / reduction residual suites (exit 1 on failure)
landscape  emit grid, section or curve samples as CSV or JSON
extrema    enumerate critical points and label the states sitting on them
state      report amplitudes and entanglement measures for one parameter point
reduce     cross-check the 8x8 factorized matrix against its 2x2 fusion form

All numbers are emitted with 17 significant digits so downstream plotting
is lossless, and a fixed seed makes randomized suites byte-reproducible.
Exit codes: 0 success, 1 tolerance failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import stat
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__, floattext
from .checks import SUITES, random_reduction, worst
from .entanglement import CLASS_TOL, entanglement_report
from .fusionbasis import LeakageError, reduce_three_body
from .landscape import AxisSpec, FUNCTIONS, find_critical_points, get_function, sample
from .threebody import (AngleTriple, ScatterParams, angles_to_params, state_coordinates,
                        state_from_params)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2


def fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal rendering."""
    return format(float(x), ".17g")


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` one at a time to a temporary file beside ``path``
    and rename it over ``path`` after the last one, so a reader never sees
    half a file and a failure mid-stream leaves ``path`` as it was, with no
    temporary file left behind.  A symlink is followed to its target, as
    ``open`` follows it, and stays a link.  The file gets the mode a plain
    ``open`` gives it: a replaced file keeps its mode, and a new one is
    created 0666 for the kernel to apply the umask, which is never read, so
    no other thread's file is created while it is changed.  A failure to
    create or rename the temporary file names ``path`` as given, as
    ``open`` would."""
    if not path:  # realpath("") is the cwd, but open("") names no file
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    target = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        mode = None
    while True:
        tmp = os.path.join(os.path.dirname(target), f".ybekit-{os.urandom(6).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(fd, mode)
            handle.writelines(chunks)
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_doc(payload: dict, **meta) -> str:
    """Indented JSON of ``payload`` with a ``meta`` that holds the version."""
    return json.dumps(dict(payload, meta=dict(meta, version=__version__)),
                      sort_keys=True, indent=1) + "\n"


def _emit(path: str | None, chunks: Iterable[bytes]) -> None:
    """Write the ASCII ``chunks`` to ``path`` (see :func:`_write_atomic`)
    or, without one, to stdout, each as it comes."""
    if path is None:
        # ``map`` keeps no chunk bound between writes; ``bytes.decode``
        # would refuse the bytearray chunks
        sys.stdout.writelines(map(lambda chunk: chunk.decode("ascii"), chunks))
    else:
        _write_atomic(path, chunks)


def parse_fields(raw: str, name: str, *kinds: type) -> list:
    """The ``--NAME`` value as colon-separated fields of ``kinds``: a
    landscape axis is ``start:stop:count``, an extrema box side
    ``start:stop``."""
    form = ":".join(["start", "stop", "count"][:len(kinds)])
    parts = raw.split(":")
    try:
        if len(parts) != len(kinds):
            raise ValueError
        return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError:
        raise ValueError(f"--{name} must look like {form}, got {raw!r}") from None


def number(kind: type = float, minimum: int | None = None):
    """argparse type for a finite ``kind`` value no smaller than ``minimum``:
    a NaN slips through every ``<=`` gate and a value below the minimum
    passes or fails vacuously, so both are usage errors (exit 2)."""
    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or (minimum is not None and value < minimum):
            what = "an integer" if kind is int else "a finite number"
            bound = "" if minimum is None else f" >= {minimum}"
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
    # a flag that no chosen suite reads is a usage error, not silently ignored
    read = {}  # the flags the ybe suite reads, which JSON meta records
    for flag, default in (("samples", 1000), ("seed", 0)):
        value = getattr(args, flag)
        if "ybe" in names:
            read[flag] = default if value is None else value
        elif value is not None:
            raise ValueError(f"--{flag} applies only to the ybe suite, not --suite {args.suite}")
    vars(args).update(read)
    rows = [check for name in names for check in SUITES[name](args)]

    failed = sum(not c.passed for c in rows)
    summary = f"{len(rows) - failed}/{len(rows)} checks passed"
    if args.format == "json":
        text = _json_doc({"checks": [
            # strict JSON has no NaN: a non-finite residual is written as null
            {"name": c.name, "residual": float(c.residual) if math.isfinite(c.residual) else None,
             "tol": float(c.tol), "pass": c.passed} for c in rows]}, tol=args.tol, **read)
    else:
        text = "".join(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<64s} residual "
                       f"{fmt(c.residual):>24s}  tol {c.tol:.1e}\n" for c in rows) + summary + "\n"
    _emit(args.output, [text.encode("ascii")])
    if args.output is not None:
        sys.stdout.write(summary + "\n")
    return EXIT_OK if failed == 0 else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def _csv_mesh(coords: dict[str, np.ndarray], values: np.ndarray) -> Iterator[bytes]:
    """CSV of a landscape sampled on the ``ij`` mesh of ``coords`` (axis
    name to points, in axis order, one or two axes): a row per value, in
    flat order, of its axis coordinates and the value, each cell as
    :func:`fmt` renders it.  The header and then each block of rows that
    :func:`floattext.mesh_blocks` renders are yielded as ASCII bytes."""
    yield ",".join([*coords, "value"]).encode("ascii") + b"\n"
    yield from floattext.mesh_blocks(values, list(coords.values()), b"," * len(coords) + b"\n")


def _json_text(fn: str, axes: list[AxisSpec], values: np.ndarray,
               meta: dict) -> Iterator[bytes]:
    """The landscape JSON document as ``json.dumps`` renders it, as ASCII
    bytes: the text before the ``values`` array, which sorts last among the
    keys, then the array a block at a time as :func:`floattext.mesh_blocks`
    renders it, then the text after it."""
    payload = {
        "fn": fn,
        "axes": [
            {"name": a.name, "start": a.start, "stop": a.stop, "n": a.n} for a in axes
        ],
        "values": [],
        "meta": dict(meta, version=__version__),
    }
    head, _, tail = json.dumps(payload, sort_keys=True, separators=(",", ":")).rpartition(
        '"values":[]')
    yield f'{head}"values":['.encode("ascii")
    last = (values.size - 1) // floattext.BLOCK
    for k, numbers in enumerate(floattext.mesh_blocks(values, [], b",", shortest=True)):
        if k == last:
            del numbers[-1]  # no comma after the last
        yield numbers
    yield f"]{tail}\n".encode("ascii")


def cmd_landscape(args) -> int:
    axes, fixed = _axes(args, get_function(args.fn).chart)
    values = sample(args.fn, axes)
    if args.format == "json":
        meta = {} if fixed is None else {"section": f"{fixed.name}={fmt(fixed.start)}"}
        chunks = _json_text(args.fn, [a for a in axes if a is not fixed], values, meta)
    else:
        chunks = _csv_mesh({a.name: a.points() for a in axes}, values)
    _emit(args.output, chunks)
    return EXIT_OK


def _axis_names() -> list[str]:
    """Every axis that a registered function has, in registry order."""
    return list(dict.fromkeys(name for spec in FUNCTIONS.values() for name in spec.chart.axes))


def _check_axis_flags(args, chart) -> None:
    """Other functions' axis flags, and a section of a curve, are usage
    errors, not silently ignored."""
    unused = [name for name in _axis_names() if name not in chart.axes]
    for flag in unused + (["section"] if len(chart.axes) == 1 else []):
        if getattr(args, flag, None) is not None:
            raise ValueError(f"--{flag} does not apply to the "
                             f"{len(chart.axes)}-parameter function {args.fn}")


def _axes(args, chart) -> tuple[list[AxisSpec], AxisSpec | None]:
    """One axis per axis of the ``--fn`` function's chart: the --NAME axis,
    or the chart's default box and sample count.  ``--section NAME=VALUE``
    makes axis NAME the 1-point axis at VALUE, which is also returned;
    every axis of a surface with no section needs 3 points.  The flag of
    the axis a section fixes is a usage error, as are the flags
    :func:`_check_axis_flags` refuses."""
    _check_axis_flags(args, chart)
    section = getattr(args, "section", None)
    fixed_name, _, raw = (section or "").partition("=")
    fixed_name = fixed_name.strip()
    if fixed_name in chart.axes and getattr(args, fixed_name) is not None:
        raise ValueError(f"--{fixed_name} does not apply: --section {section} fixes that axis")
    if section is not None:
        if fixed_name not in chart.axes or not raw:
            forms = " or ".join(f"{name}=VALUE" for name in chart.axes)
            raise ValueError(f"--section must be {forms}, got {section!r}")
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"--section needs a finite value, got {section!r}")
    axes, fixed = [], None
    for name, (lo, hi) in zip(chart.axes, chart.domain):
        if name == fixed_name:  # only a valid --section names an axis
            fixed = AxisSpec(name, value, value, 1)
            axes.append(fixed)
        elif getattr(args, name) is not None:
            axes.append(AxisSpec(name, *parse_fields(getattr(args, name), name, float, float, int)))
        else:
            axes.append(AxisSpec(name, lo, hi, chart.samples))
    if len(axes) > 1 and fixed is None:
        for axis in axes:
            if axis.n < 3:
                raise ValueError(f"axis {axis.name} needs at least 3 samples for a grid, "
                                 f"got {axis.n}")
    return axes, fixed


# ---------------------------------------------------------------------------
# extrema
# ---------------------------------------------------------------------------

def cmd_extrema(args) -> int:
    chart = get_function(args.fn).chart
    _check_axis_flags(args, chart)
    domain = [parse_fields(getattr(args, name), name, float, float) if getattr(args, name)
              is not None else bounds for name, bounds in zip(chart.axes, chart.domain)]
    points = find_critical_points(args.fn, domain)
    labelled = chart.state is not None  # a three-body landscape labels each state's class
    header = [*chart.axes, "value", "kind", "smooth"] + ["slocc_class"] * labelled
    rows = [[*map(float, p.location), float(p.value), p.kind, p.smooth]
            + [p.slocc_class] * labelled for p in points]
    if args.format == "json":  # the numbers as json.dumps writes them, smooth a boolean
        text = _json_doc({"fn": args.fn, "points": [dict(zip(header, row)) for row in rows]})
    else:  # the numbers as fmt renders them, smooth as true or false
        text = _csv_text(header, [[json.dumps(x) if isinstance(x, bool) else
                                   fmt(x) if isinstance(x, float) else x for x in row]
                                  for row in rows])
    _emit(args.output, [text.encode("ascii")])
    return EXIT_OK


# ---------------------------------------------------------------------------
# state / reduce
# ---------------------------------------------------------------------------

def _params_from_args(args) -> tuple[ScatterParams, AngleTriple | None]:
    if args.thetas:
        if args.eta is not None or args.beta is not None:
            raise ValueError("--thetas does not combine with --eta or --beta")
        return angles_to_params(args.thetas, args.tol), args.thetas
    if args.eta is None or args.beta is None:
        raise ValueError("provide either --thetas or both --eta and --beta")
    return ScatterParams(args.eta, args.beta).canonical(), None


def cmd_state(args) -> int:
    params, triple = _params_from_args(args)
    psi = state_from_params(params)
    # Classification thresholds follow the input tolerance: angles typed at
    # a few decimals shift the invariants by the same scale.
    report = entanglement_report(state_coordinates(params.eta, params.beta),
                                 tol=max(args.tol, CLASS_TOL))
    l1 = FUNCTIONS["l1_S3"](params.eta, params.beta)  # a point prints as in landscape

    if args.format == "json":
        sys.stdout.write(_json_doc({
            "eta": params.eta,
            "beta": params.beta,
            "thetas": [triple.t1, triple.t2, triple.t3] if triple else None,
            "amplitudes": [[float(a.real), float(a.imag)] for a in psi],
            "l1": l1,
            "vn_entropies_bits": {str(k + 1): v for k, v in report.vn_entropies.items()},
            "three_tangle": report.three_tangle,
            "slocc_class": report.slocc_class,
        }))
        return EXIT_OK

    lines = [f"eta  = {fmt(params.eta)}", f"beta = {fmt(params.beta)}"]
    if triple:
        lines.append(f"thetas = ({fmt(triple.t1)}, {fmt(triple.t2)}, {fmt(triple.t3)})")
    lines.append("amplitudes:")
    lines += [f"  |{idx:03b}>  {fmt(amp.real)} {'+' if amp.imag >= 0 else '-'} {fmt(abs(amp.imag))}j"
              for idx, amp in enumerate(psi) if abs(amp) > 1e-15]
    lines += [f"l1 norm      = {fmt(l1)}",
              *(f"entropy cut {k + 1}|rest = {fmt(s)} bits" for k, s in report.vn_entropies.items()),
              f"three-tangle = {fmt(report.three_tangle)}", f"class        = {report.slocc_class}"]
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
        if args.constraint_tol is not None:
            raise ValueError("--constraint-tol applies only to --thetas, not --random")
        residual = worst(random_reduction(args.random, args.seed or 0))
        ok = residual <= args.tol
        sys.stdout.write(
            f"{args.random} random constrained triples: max residual {fmt(residual)} "
            f"(tol {args.tol:.1e}) {'PASS' if ok else 'FAIL'}\n"
        )
        return EXIT_OK if ok else EXIT_TOLERANCE

    if not args.thetas:
        raise ValueError("provide --thetas t1,t2,t3 or --random N")
    if args.seed is not None:
        raise ValueError("--seed applies only to --random")
    constraint_tol = 1e-4 if args.constraint_tol is None else args.constraint_tol
    reduced, closed, params, residual = reduce_three_body(args.thetas, constraint_tol)
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
    p_verify.add_argument("--samples", type=number(int, minimum=1), default=None)
    p_verify.add_argument("--seed", type=number(int, minimum=0), default=None)
    p_verify.add_argument("--tol", type=number(minimum=0), default=1e-12)
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--format", default="text", choices=["text", "json"])
    p_verify.set_defaults(func=cmd_verify)

    p_land = sub.add_parser("landscape", help="emit grid/section/curve samples")
    p_ext = sub.add_parser("extrema", help="find and classify critical points")
    p_land.add_argument("--fn", required=True, choices=sorted(FUNCTIONS))
    p_ext.add_argument("--fn", default="l1_S3", choices=sorted(FUNCTIONS))
    for name in _axis_names():  # one flag per axis of the registered functions
        tags = ", ".join(tag for tag, spec in FUNCTIONS.items() if name in spec.chart.axes)
        p_land.add_argument(f"--{name}", default=None, help=f"start:stop:count ({tags})")
        p_ext.add_argument(f"--{name}", default=None, help=f"start:stop box side ({tags})")
    p_land.add_argument("--section", default=None, help="AXIS=VALUE (surfaces)")
    p_land.add_argument("--output", default=None)
    p_land.add_argument("--format", default="csv", choices=["csv", "json"])
    p_land.set_defaults(func=cmd_landscape)

    p_ext.add_argument("--output", default=None)
    p_ext.add_argument("--format", default="csv", choices=["csv", "json"])
    p_ext.set_defaults(func=cmd_extrema)

    p_state = sub.add_parser("state", help="report one scattering output state")
    p_state.add_argument("--eta", type=number(), default=None)
    p_state.add_argument("--beta", type=number(), default=None)
    p_state.add_argument("--thetas", type=parse_thetas, default=None,
                         help="t1,t2,t3 on the constraint line")
    p_state.add_argument("--tol", type=number(minimum=0), default=1e-4,
                         help="input tolerance: bounds the --thetas constraint "
                              "residual and the classification thresholds")
    p_state.add_argument("--format", default="text", choices=["text", "json"])
    p_state.set_defaults(func=cmd_state)

    p_red = sub.add_parser("reduce", help="cross-check the fusion-space reduction")
    p_red_mode = p_red.add_mutually_exclusive_group()
    p_red_mode.add_argument("--thetas", type=parse_thetas, default=None,
                            help="t1,t2,t3 on the constraint line")
    p_red_mode.add_argument("--random", type=number(int, minimum=1), default=0,
                            help="check N random constrained triples instead")
    p_red.add_argument("--seed", type=number(int, minimum=0), default=None)
    p_red.add_argument("--tol", type=number(minimum=0), default=1e-10)
    p_red.add_argument("--constraint-tol", type=number(minimum=0), default=None)
    p_red.set_defaults(func=cmd_reduce)

    # argparse reads a token that a parser's negative-number matcher accepts
    # as a value, not an option; this one accepts every minus-signed value a
    # subcommand reads: a range, an exponent form, -.5, -inf and -nan
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = re.compile(r"-(?:[\d.]|(?i:inf|nan))")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser every :func:`main` call in a process uses, since
    building it takes longer than parsing and running a short query.  Reuse
    is safe because parsing leaves it as built: each ``parse_args`` fills a
    new namespace, no default is mutable, and usage and error text is
    formatted when it is printed."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except LeakageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TOLERANCE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:  # a grid too large to allocate
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

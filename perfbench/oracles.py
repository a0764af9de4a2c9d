"""Closed-form oracles for every job output.  They fail closed: a missing
field, a parse error, a non-finite number or an out-of-tolerance value is a
failure.  ``check`` returns None for a correct output, else the first
problem found.  Nothing here imports ybekit, so a defect in the program
cannot hide in its own oracle.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

VALUE_TOL = 1e-12
SQRT2 = math.sqrt(2.0)
BETA_STAR = math.atan(1.0 / SQRT2)
CLASS_TOL = 1e-4  # the state command's default classification threshold


class OracleError(ValueError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        hp = np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
        hq = np.where(q > 0.0, -q * np.log2(np.where(q > 0.0, q, 1.0)), 0.0)
    return hp + hq


def closed_form(fn: str, *coords: np.ndarray) -> np.ndarray:
    """The landscape functions in closed form, over broadcast arrays."""
    if fn in ("l1_S3", "l1_Sprime"):
        eta, beta = coords
        se = np.sin(eta)
        return np.abs(np.cos(eta)) + SQRT2 * np.abs(np.cos(beta) * se) + np.abs(np.sin(beta) * se)
    if fn == "vn_Sprime":
        eta, beta = coords
        return binary_entropy(np.cos(eta) ** 2 + np.cos(beta) ** 2 * np.sin(eta) ** 2 / 2.0)
    if fn == "l1_wigner":
        (theta,) = coords
        return np.abs(np.cos(theta)) + np.abs(np.sin(theta))
    if fn == "vn_xi":
        (theta,) = coords
        return binary_entropy(np.cos(theta) ** 2)
    raise OracleError(f"no closed form for {fn!r}")


def _points(axis: tuple) -> np.ndarray:
    start, stop, n = axis
    return np.array([start]) if n == 1 else np.linspace(start, stop, n)


def _compare(fn: str, got: np.ndarray, *coords: np.ndarray) -> None:
    got = np.asarray(got, dtype=float)
    _require(bool(np.all(np.isfinite(got))), "non-finite value in output")
    want = closed_form(fn, *coords)
    err = float(np.max(np.abs(got - want))) if got.size else math.inf
    _require(err <= VALUE_TOL, f"{fn}: max deviation from closed form {err:.3e} > {VALUE_TOL:.0e}")


def _csv(text: str, header: str, ncols: int) -> np.ndarray:
    lines = text.split("\n")
    _require(lines[0] == header, f"CSV header {lines[0]!r} != {header!r}")
    _require(lines[-1] == "" and len(lines) > 2, "CSV has no rows or no final newline")
    body = ",".join(lines[1:-1]).split(",")
    _require(len(body) == (len(lines) - 2) * ncols, "CSV row with the wrong column count")
    return np.array(body, dtype=float).reshape(-1, ncols)


def _json_axes(text: str, fn: str, axes: list[tuple[str, tuple]]) -> np.ndarray:
    payload = json.loads(text)
    _require(payload.get("fn") == fn, f"JSON fn {payload.get('fn')!r} != {fn!r}")
    got_axes = payload["axes"]
    _require(len(got_axes) == len(axes), "JSON axis count")
    for got, (name, (start, stop, n)) in zip(got_axes, axes):
        _require(got == {"name": name, "start": start, "stop": stop, "n": n},
                 f"JSON axis {got} != {name} {start}:{stop}:{n}")
    values = np.array(payload["values"], dtype=float)
    _require(values.size == math.prod(a[1][2] for a in axes), "JSON value count")
    return values, payload


def check_surface(spec: dict, text: str) -> None:
    etas, betas = _points(spec["eta"]), _points(spec["beta"])
    eta_grid, beta_grid = np.meshgrid(etas, betas, indexing="ij")
    if spec["format"] == "csv":
        data = _csv(text, "eta,beta,value", 3)
        _require(data.shape[0] == etas.size * betas.size, "surface CSV row count")
        _require(np.array_equal(data[:, 0], eta_grid.reshape(-1))
                 and np.array_equal(data[:, 1], beta_grid.reshape(-1)),
                 "surface CSV coordinates differ from the requested grid")
        values = data[:, 2]
    else:
        values, _ = _json_axes(text, spec["fn"], [("eta", spec["eta"]), ("beta", spec["beta"])])
    _compare(spec["fn"], values, eta_grid.reshape(-1), beta_grid.reshape(-1))


def check_section(spec: dict, text: str) -> None:
    xs = _points(spec["axis"])
    fixed, value = spec["fixed"], spec["value"]
    moving = "eta" if fixed == "beta" else "beta"
    if spec["format"] == "csv":
        data = _csv(text, "eta,beta,value", 3)
        col_moving, col_fixed = (0, 1) if moving == "eta" else (1, 0)
        _require(np.array_equal(data[:, col_moving], xs), "section CSV moving coordinate")
        _require(bool(np.all(data[:, col_fixed] == value)), "section CSV fixed coordinate")
        values = data[:, 2]
    else:
        values, payload = _json_axes(text, spec["fn"], [(moving, spec["axis"])])
        _require(payload["meta"].get("section") == f"{fixed}={format(value, '.17g')}",
                 "section JSON meta")
    fixed_col = np.full_like(xs, value)
    coords = (xs, fixed_col) if moving == "eta" else (fixed_col, xs)
    _compare(spec["fn"], values, *coords)


def check_curve(spec: dict, text: str) -> None:
    xs = _points(spec["axis"])
    if spec["format"] == "csv":
        data = _csv(text, "theta,value", 2)
        _require(np.array_equal(data[:, 0], xs), "curve CSV coordinates")
        values = data[:, 1]
    else:
        values, _ = _json_axes(text, spec["fn"], [("theta", spec["axis"])])
    _compare(spec["fn"], values, xs)


def check_extrema_l1(spec: dict, text: str) -> None:
    """Every row sits on the l1_S3 surface, and the GHZ maxima (value 2)
    and W saddles (value sqrt 3) at beta = +-arctan(1/sqrt 2) are all there."""
    lines = text.split("\n")
    _require(lines[0] == "eta,beta,value,kind,smooth,slocc_class", "extrema CSV header")
    rows = [line.split(",") for line in lines[1:-1]]
    _require(len(rows) > 0 and lines[-1] == "", "extrema CSV has no rows")
    _require(all(len(r) == 6 for r in rows), "extrema CSV column count")
    loc = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in rows])
    _compare("l1_S3", loc[:, 2], loc[:, 0], loc[:, 1])
    expected = (
        [(2.0, "local-max", "GHZ-class", eta, sign * BETA_STAR)
         for eta in (math.pi / 3, 2 * math.pi / 3, 4 * math.pi / 3, 5 * math.pi / 3)
         for sign in (1.0, -1.0)]
        + [(math.sqrt(3.0), "saddle", "W-class", eta, sign * BETA_STAR)
           for eta in (math.pi / 2, 3 * math.pi / 2) for sign in (1.0, -1.0)]
    )
    for value, kind, label, eta, beta in expected:
        hits = [
            r for r, (e, b, v) in zip(rows, loc)
            if abs(e - eta) < 1e-6 and abs(b - beta) < 1e-6
        ]
        _require(len(hits) == 1, f"expected one {label} {kind} at ({eta:.6f}, {beta:.6f})")
        r = hits[0]
        _require(abs(float(r[2]) - value) < 1e-7 and r[3] == kind and r[5] == label,
                 f"point at ({eta:.6f}, {beta:.6f}) reads {r[2:]}, want {value} {kind} {label}")


def check_verify(spec: dict, text: str) -> None:
    """Per-check residuals, not the summary line: the summary's max()
    would drop a NaN residual."""
    checks = json.loads(text)["checks"]
    _require(len(checks) > 0, "verify produced no checks")
    for c in checks:
        r, t = c["residual"], c["tol"]
        _require(isinstance(r, float) and math.isfinite(r) and math.isfinite(t),
                 f"non-finite residual or tol in {c['name']}")
        _require(r <= t and c["pass"] is True, f"{c['name']}: residual {r} > tol {t}")
    names = [c["name"] for c in checks]
    for prefix in ("tl.", "braid.", "ybe.", "reduce.", "fusion-basis."):
        _require(any(n.startswith(prefix) for n in names), f"verify has no {prefix} checks")
    ybe = [n for n in names if n.startswith("ybe.")]
    _require(len(ybe) == 4 and all(f"({spec['samples']} samples)" in n for n in ybe),
             "verify YBE suite does not cover four families at the requested samples")


_REDUCE_RANDOM = re.compile(
    r"(\d+) random constrained triples: max residual (\S+) \(tol (\S+)\) (PASS|FAIL)\n")


def check_reduce_random(spec: dict, text: str) -> None:
    m = _REDUCE_RANDOM.fullmatch(text)
    _require(m is not None, "reduce --random output does not parse")
    count, residual, tol, verdict = int(m[1]), float(m[2]), float(m[3]), m[4]
    _require(count == spec["count"], "reduce --random sample count")
    _require(math.isfinite(residual) and residual <= tol and verdict == "PASS",
             f"reduce --random residual {residual} vs tol {tol} {verdict}")


_CELL = re.compile(r"([+-]\d+\.\d+)([+-]\d+\.\d+)j")


def _matrix(lines: list[str]) -> np.ndarray:
    return np.array([[complex(float(a), float(b)) for a, b in _CELL.findall(line)]
                     for line in lines])


def fusion_form(eta: float, beta: float) -> np.ndarray:
    ce, se, cb, sb = math.cos(eta), math.sin(eta), math.cos(beta), math.sin(beta)
    d = 1j * cb / SQRT2
    return np.array([[ce + d * se, (d + sb) * se], [(d - sb) * se, ce - d * se]])


def check_reduce_thetas(spec: dict, text: str) -> None:
    """The GHZ preimage maps to (pi/3, beta*); the printed closed form is
    the fusion-space matrix there; the reduced 8x8 product equals its
    entrywise conjugate up to one global phase."""
    lines = text.split("\n")
    _require(len(lines) == 9 and lines[-1] == "", "reduce --thetas output shape")
    m = re.fullmatch(r"closed 2x2 form at \(eta, beta\) = \((\S+), (\S+)\):", lines[3])
    _require(m is not None, "reduce --thetas parameter line")
    eta, beta = float(m[1]), float(m[2])
    _require(abs(eta - math.pi / 3) < 1e-12 and abs(beta - BETA_STAR) < 1e-12,
             f"GHZ preimage mapped to ({eta}, {beta})")
    reduced, closed = _matrix(lines[1:3]), _matrix(lines[4:6])
    _require(reduced.shape == (2, 2) and closed.shape == (2, 2), "reduce --thetas matrices")
    _require(float(np.max(np.abs(closed - fusion_form(eta, beta)))) < 1e-11,
             "printed closed form differs from the fusion-space matrix")
    target = closed.conj()
    phase = np.vdot(target.reshape(-1), reduced.reshape(-1))
    phase /= abs(phase)
    _require(float(np.max(np.abs(reduced - phase * target))) < 1e-9,
             "reduced matrix is not the conjugated closed form up to a phase")
    m = re.fullmatch(r"residual (\S+) \(tol (\S+)\) (PASS|FAIL)", lines[7])
    _require(m is not None and math.isfinite(float(m[1])) and float(m[1]) <= float(m[2])
             and m[3] == "PASS", f"reduce --thetas verdict line {lines[7]!r}")


def _r4(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, 0, 0, s], [0, c, s, 0], [0, -s, c, 0], [-s, 0, 0, c]], dtype=complex)


def product_state(t1: float, t2: float, t3: float) -> np.ndarray:
    """R12(t1) R23(t2) R12(t3) |000> from the trigonometric 4x4 R-matrix."""
    eye = np.eye(2)
    r12 = lambda t: np.kron(_r4(t), eye)
    r23 = lambda t: np.kron(eye, _r4(t))
    return (r12(t1) @ r23(t2) @ r12(t3))[:, 0]


def _parse_state_text(text: str) -> dict:
    out = {"amplitudes": np.zeros(8, dtype=complex), "entropies": {}}
    for line in text.split("\n")[:-1]:
        if m := re.fullmatch(r"(eta|beta)\s+= (\S+)", line):
            out[m[1]] = float(m[2])
        elif m := re.fullmatch(r"thetas = \((\S+), (\S+), (\S+)\)", line):
            out["thetas"] = [float(m[1]), float(m[2]), float(m[3])]
        elif m := re.fullmatch(r"  \|([01]{3})>  (\S+) ([+-]) (\S+)j", line):
            imag = float(m[4]) * (1.0 if m[3] == "+" else -1.0)
            out["amplitudes"][int(m[1], 2)] = complex(float(m[2]), imag)
        elif m := re.fullmatch(r"l1 norm\s+= (\S+)", line):
            out["l1"] = float(m[1])
        elif m := re.fullmatch(r"entropy cut (\d)\|rest = (\S+) bits", line):
            out["entropies"][int(m[1])] = float(m[2])
        elif m := re.fullmatch(r"three-tangle = (\S+)", line):
            out["tangle"] = float(m[1])
        elif m := re.fullmatch(r"class\s+= (\S+)", line):
            out["class"] = m[1]
        elif line != "amplitudes:":
            raise OracleError(f"unexpected state line {line!r}")
    return out


def _parse_state_json(text: str) -> dict:
    payload = json.loads(text)
    return {
        "eta": payload["eta"], "beta": payload["beta"], "thetas": payload["thetas"],
        "amplitudes": np.array([complex(re_, im) for re_, im in payload["amplitudes"]]),
        "l1": payload["l1"],
        "entropies": {int(k): v for k, v in payload["vn_entropies_bits"].items()},
        "tangle": payload["three_tangle"], "class": payload["slocc_class"],
    }


def three_tangle(eta: float, beta: float) -> float:
    """3-tangle of the scattering output state: with amplitudes c on |000>,
    p on |011> and |110> and q on |101>, tau = 16 |c p^2 q|."""
    pair = math.cos(beta) * math.sin(eta) / SQRT2
    return 16.0 * abs(math.cos(eta) * pair ** 2 * math.sin(beta) * math.sin(eta))


def check_state(spec: dict, text: str) -> None:
    got = _parse_state_text(text) if spec["format"] == "text" else _parse_state_json(text)
    eta, beta = got["eta"], got["beta"]
    nums = [eta, beta, got["l1"], got["tangle"], *got["entropies"].values()]
    _require(all(isinstance(x, float) and math.isfinite(x) for x in nums)
             and sorted(got["entropies"]) == [1, 2, 3], "state report incomplete or non-finite")
    _require(0.0 <= eta < 2 * math.pi and -math.pi <= beta < math.pi,
             "state parameters not canonical")
    pair = -math.cos(beta) * math.sin(eta) / SQRT2
    lone = -math.sin(beta) * math.sin(eta)
    want = np.zeros(8, dtype=complex)
    want[0b000], want[0b011], want[0b110], want[0b101] = math.cos(eta), pair, pair, lone
    amps = got["amplitudes"]
    _require(float(np.max(np.abs(amps - want))) <= VALUE_TOL, "amplitudes differ from closed form")
    if spec["thetas"] is not None:
        _require(got["thetas"] == spec["thetas"], "state thetas not echoed")
        _require(float(np.max(np.abs(amps - product_state(*spec["thetas"])))) <= VALUE_TOL,
                 "state differs from the factorized product acting on |000>")
    _require(abs(got["l1"] - float(closed_form("l1_S3", eta, beta))) <= VALUE_TOL, "l1 norm")
    ones = [pair ** 2 + lone ** 2, 2 * pair ** 2, pair ** 2 + lone ** 2]
    for k, p in enumerate(ones, start=1):
        _require(abs(got["entropies"][k] - float(binary_entropy(p))) <= 1e-10,
                 f"entropy of cut {k}")
    tangle = three_tangle(eta, beta)
    _require(abs(got["tangle"] - tangle) <= VALUE_TOL, "three-tangle")
    # Expected class by the same thresholds, unless a measure sits within a
    # factor 10 of the threshold, where rounding may decide either way.
    measures = [tangle] + [float(binary_entropy(p)) for p in ones]
    if all(m > 10 * CLASS_TOL or m < CLASS_TOL / 10 for m in measures):
        zero_cuts = sum(1 for m in measures[1:] if m <= CLASS_TOL)
        label = ("GHZ-class" if tangle > CLASS_TOL else "W-class" if zero_cuts == 0
                 else "product" if zero_cuts == 3 else "biseparable")
        _require(got["class"] == label, f"class {got['class']} != {label}")


CHECKS = {
    "surface": check_surface,
    "section": check_section,
    "curve": check_curve,
    "extrema_l1": check_extrema_l1,
    "verify": check_verify,
    "reduce_random": check_reduce_random,
    "reduce_thetas": check_reduce_thetas,
    "state": check_state,
}


def check(spec: dict, data: bytes) -> str | None:
    """None when the output is correct, else the first problem found."""
    try:
        CHECKS[spec["kind"]](spec, data.decode("utf-8"))
    except (OracleError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None

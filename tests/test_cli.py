import argparse
import dataclasses
import json
import math
import os
import re
import shlex
import stat
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ybekit import checks, cli, landscape
from ybekit.landscape import FUNCTIONS, AxisSpec, sample
from ybekit.threebody import ScatterParams, angles_to_params, random_constrained_triple

from conftest import reading
from reference import _csv_numbers_reference, _json_text_reference


def run_cli_streams(args, capsys):
    """In-process invocation returning (exit_code, stdout, stderr)."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    return (code, *capsys.readouterr())


def run_cli(args, capsys):
    """In-process invocation returning (exit_code, stdout)."""
    return run_cli_streams(args, capsys)[:2]


def run_cli_subprocess(args):
    """A fresh ``python -m ybekit.cli`` process, killed after 60 s so that a
    search that never ends fails its test instead of stalling the suite."""
    proc = subprocess.run(
        [sys.executable, "-m", "ybekit.cli", *args],
        capture_output=True, text=True, timeout=60,
    )
    return proc


def _joined(chunks):
    """The text of a writer's stream of ASCII byte chunks."""
    return b"".join(chunks).decode("ascii")


def _csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def test_verify_all_small_run(capsys):
    code, out = run_cli(
        ["verify", "--suite", "all", "--samples", "60", "--seed", "0"], capsys
    )
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_seeded_runs_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for p in paths:
        proc = run_cli_subprocess(
            ["verify", "--suite", "ybe", "--samples", "50", "--seed", "7",
             "--output", str(p)]
        )
        assert proc.returncode == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_landscape_grid_shape(capsys):
    code, out = run_cli(
        ["landscape", "--fn", "l1_S3", "--eta", "0:6.2832:200",
         "--beta", "-1.5708:1.5708:200"], capsys
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["eta", "beta", "value"]
    assert len(rows) == 40000


def test_landscape_grid_deterministic(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        proc = run_cli_subprocess(
            ["landscape", "--fn", "l1_S3", "--eta", "0:6.2832:50",
             "--beta", "-1.5708:1.5708:50", "--output", str(p)]
        )
        assert proc.returncode == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_landscape_section_peak(capsys):
    code, out = run_cli(
        ["landscape", "--fn", "l1_S3", "--section", "beta=0.61548",
         "--eta", "0:6.2832:1000"], capsys
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["eta", "beta", "value"]
    assert len(rows) == 1000
    values = np.array([float(r[2]) for r in rows])
    etas = np.array([float(r[0]) for r in rows])
    assert abs(values.max() - 2.0) < 1e-4
    near = np.abs(etas - 1.0472) < 0.005
    assert values[near].max() > 2.0 - 1e-4


def test_landscape_entropy_section_values(capsys):
    code, out = run_cli(
        ["landscape", "--fn", "vn_Sprime", "--section", "beta=0.61548",
         "--eta", "0:6.2832:1000"], capsys
    )
    assert code == 0
    _, rows = _csv_rows(out)
    etas = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[2]) for r in rows])
    at_third_pi = values[np.argmin(np.abs(etas - math.pi / 3))]
    at_half_pi = values[np.argmin(np.abs(etas - math.pi / 2))]
    assert abs(at_third_pi - 1.0) < 1e-4
    assert abs(at_half_pi - 0.918296) < 1e-4


def test_landscape_curve_and_json(capsys):
    code, out = run_cli(
        ["landscape", "--fn", "l1_wigner", "--theta", "0:1.5708:100",
         "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fn"] == "l1_wigner"
    assert payload["axes"][0]["name"] == "theta"
    assert len(payload["values"]) == 100
    assert payload["meta"]["version"]


FEW_POINTS = [
    (["landscape", "--fn", "l1_S3", "--section", "beta=0.5", "--eta", "1:1:1"],
     ["eta"], "beta=0.5", ["1,0.5,"]),
    (["landscape", "--fn", "vn_Sprime", "--section", "eta=0.5", "--beta", "-1:-1:1"],
     ["beta"], "eta=0.5", ["0.5,-1,"]),
    (["landscape", "--fn", "l1_Sprime", "--section", "eta=-0", "--beta", "-1:1:2"],
     ["beta"], "eta=-0", ["-0,-1,", "-0,1,"]),
    (["landscape", "--fn", "l1_wigner", "--theta", "0.5:0.5:1"], ["theta"], None, ["0.5,"]),
    (["landscape", "--fn", "vn_xi", "--theta", "0:1:2"], ["theta"], None, ["0,", "1,"]),
]


@pytest.mark.parametrize("argv, axes, section, rows", FEW_POINTS,
                         ids=[" ".join(case[0]) for case in FEW_POINTS])
def test_one_and_two_point_sections_and_curves(argv, axes, section, rows, capsys):
    """A section's moving axis and a curve may have 1 or 2 points; JSON
    lists only the sampled axes, and a section's fixed axis goes in meta."""
    code, out = run_cli(argv, capsys)
    assert code == 0
    header, body = _csv_rows(out)
    assert header == (["theta", "value"] if axes == ["theta"] else ["eta", "beta", "value"])
    assert [",".join(r[:-1]) + "," for r in body] == rows
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [a["name"] for a in payload["axes"]] == axes
    assert payload["meta"].get("section") == section
    assert len(payload["values"]) == len(rows)


def test_output_file_gets_the_mode_of_a_plain_open(tmp_path):
    """``mkstemp`` makes 0600 files: --output gives a new file 0666 less
    the umask, as ``open`` does, and a replaced file keeps its mode, also
    the target of a symlink, which ``open`` writes through: the link stays."""
    argv = ["landscape", "--fn", "vn_xi", "--theta", "0:1:3", "--output"]
    kept, target, link = (tmp_path / name for name in ("kept.csv", "target.csv", "link.csv"))
    for old in (kept, target):
        old.write_text("old\n")
        old.chmod(0o640)
    link.symlink_to(target)
    umask = os.umask(0o022)
    try:
        assert cli.main(argv + [str(tmp_path / "new.csv")]) == 0
        os.umask(0o077)
        assert cli.main(argv + [str(tmp_path / "private.csv")]) == 0
        assert cli.main(argv + [str(kept)]) == 0
        assert cli.main(argv + [str(link)]) == 0
    finally:
        os.umask(umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"new.csv": 0o644, "private.csv": 0o600, "kept.csv": 0o640,
                     "target.csv": 0o640, "link.csv": 0o640}
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert kept.read_text() == target.read_text() != "old\n"


def test_a_write_never_changes_the_umask(tmp_path, monkeypatch):
    """A new --output file is created 0666 for the kernel to apply the
    umask, so the umask is never set, not even for a moment in which
    another thread's new file would get mode 0666; a replaced file keeps
    its mode."""
    argv = ["landscape", "--fn", "vn_xi", "--theta", "0:1:3", "--output"]
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o604)
    umask = os.umask(0o027)

    def refuse(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", refuse)
    try:
        assert cli.main(argv + [str(tmp_path / "new.csv")]) == 0
        assert cli.main(argv + [str(kept)]) == 0
    finally:
        monkeypatch.undo()
        os.umask(umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"new.csv": 0o640, "kept.csv": 0o604}


@pytest.mark.parametrize("name", ["missing/out.txt", "directory", pytest.param("", id="empty")])
def test_an_output_that_cannot_be_written_is_named_as_given(name, tmp_path, monkeypatch, capsys):
    """An --output in a missing directory, that is a directory, or that is
    empty fails with the error ``open(path, "w")`` gives, which names the
    path as given, not the temporary file beside it, and leaves no file
    behind, in the working directory's parent either."""
    (tmp_path / "directory").mkdir()
    monkeypatch.chdir(tmp_path / "directory")
    path = str(tmp_path / name) if name else name
    with pytest.raises(OSError) as opened:
        open(path, "w")
    code, out, err = run_cli_streams(["verify", "--suite", "tl", "--output", path], capsys)
    assert (code, out, err) == (2, "", f"error: {opened.value}\n")
    assert ".ybekit-" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["directory"]


def test_verify_suite_flags_apply_under_all(capsys):
    """``--suite all`` runs the ybe suite, so it reads --samples and
    --seed: its ybe rows are that suite's at the same flags.  No suite
    samples random triples; ``reduce --random`` does."""
    flags = ["--samples", "20", "--seed", "3"]
    code, out = run_cli(["verify", *flags], capsys)
    assert code == 0 and "FAIL" not in out
    code, alone = run_cli(["verify", "--suite", "ybe", *flags], capsys)
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("PASS  ybe.")] == alone.splitlines()[:-1]
    assert "(20 samples)" in out and "random triples" not in out


def test_landscape_grid_json_axes(capsys):
    code, out = run_cli(
        ["landscape", "--fn", "l1_S3", "--eta", "0:6.2832:10",
         "--beta", "-1.5:1.5:12", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert [a["name"] for a in payload["axes"]] == ["eta", "beta"]
    assert len(payload["values"]) == 120


@pytest.mark.parametrize("axes", [
    ["--fn", "vn_xi", "--theta", "-0:1:3"],
    ["--fn", "l1_S3", "--eta", "-0.0:1:3", "--beta", "-0:0.5:4"],
    ["--fn", "l1_S3", "--eta", "0:1:3", "--beta", "-1:1:3"],
], ids=["curve", "grid", "positive"])
def test_landscape_csv_and_json_axis_starts_agree(axes, capsys):
    """The first CSV coordinate of each axis is the JSON start, sign of a
    -0.0 included."""
    _, csv_out = run_cli(["landscape", *axes, "--format", "csv"], capsys)
    _, json_out = run_cli(["landscape", *axes, "--format", "json"], capsys)
    first_row = [float(cell) for cell in csv_out.splitlines()[1].split(",")]
    for axis, coordinate in zip(json.loads(json_out)["axes"], first_row):
        assert (coordinate, math.copysign(1.0, coordinate)) == \
            (axis["start"], math.copysign(1.0, axis["start"]))


def test_landscape_rejects_tiny_grid(capsys):
    code, _ = run_cli(["landscape", "--fn", "l1_S3", "--eta", "0:1:2"], capsys)
    assert code == 2


def test_extrema_default_contains_ghz_and_w(capsys):
    code, out = run_cli(["extrema"], capsys)
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["eta", "beta", "value", "kind", "smooth", "slocc_class"]

    def has_row(eta, beta, value, kind, label, loc_tol=1e-3, val_tol=1e-6):
        for r in rows:
            if (abs(float(r[0]) - eta) < loc_tol and abs(float(r[1]) - beta) < loc_tol
                    and abs(float(r[2]) - value) < val_tol
                    and r[3] == kind and r[5] == label):
                return True
        return False

    assert has_row(1.0472, 0.61548, 2.0, "local-max", "GHZ-class", loc_tol=2e-3)
    assert has_row(1.5708, 0.61548, math.sqrt(3.0), "saddle", "W-class", loc_tol=2e-3)


def test_extrema_one_dimensional(capsys):
    code, out = run_cli(["extrema", "--fn", "l1_wigner"], capsys)
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["theta", "value", "kind", "smooth"]
    assert rows == [["0", "1", "local-min", "false"],
                    ["0.78539816339744828", "1.4142135623730949", "local-max", "true"],
                    ["1.5707963267948966", "1", "local-min", "false"]]


def test_extrema_empty_domain_rejected(capsys):
    code, _ = run_cli(["extrema", "--eta", "2:1"], capsys)
    assert code == 2


def test_extrema_box_end_too_coarse_for_a_location_is_usage_error(capsys):
    """Where the float spacing at a box end exceeds 1e-7, no location there
    is resolved: the box is named with exit 2.  A wide box whose ends
    resolve one still gives its rows."""
    code, out, err = run_cli_streams(
        ["extrema", "--fn", "l1_wigner", "--theta", "1e13:1.00000000001e13"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: axis theta: the float spacing at [10000000000000.0, "
                   "10000000000100.0] exceeds 1e-07, the resolution of a location\n")
    code, out = run_cli(["extrema", "--fn", "l1_wigner", "--theta", "1e6:1.00001e6"], capsys)
    assert code == 0
    _, rows = _csv_rows(out)
    maxima = {value for _, value, kind, _ in rows if kind == "local-max"}
    assert maxima == {"1.4142135623730949", "1.4142135623730951"}  # the doubles either side of sqrt 2
    assert len(rows) == 13


def test_the_preimage_bound_counts_what_the_chart_declares(capsys):
    """A point of the circle has one preimage per 2 pi cell: a theta box of
    width 6000 has 955 cells of 8 points, 7640 at most, within the bound."""
    code, out = run_cli(["extrema", "--fn", "l1_wigner", "--theta", "-3000:3000"], capsys)
    assert code == 0 and len(_csv_rows(out)[1]) == 7639


def test_extrema_labels_the_declared_points_in_one_call(monkeypatch, capsys):
    """One report labels the 26 faces of l1_S3's face lemma, from their
    coordinates (a, b, c), one array each, however many rows they pull
    back to; the command itself classifies nothing."""
    report, calls = landscape.entanglement_report, []

    def counted(coords):
        coords = tuple(coords)
        calls.append([np.shape(x) for x in coords])
        return report(coords)

    def unused(*args, **kwargs):
        raise AssertionError("extrema called entanglement_report")

    monkeypatch.setattr(landscape, "entanglement_report", counted)
    monkeypatch.setattr(cli, "entanglement_report", unused)
    code, out = run_cli(["extrema", "--fn", "l1_S3"], capsys)
    _, rows = _csv_rows(out)
    assert code == 0 and len(rows) == 30 and calls == [[(26,)] * 3]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_extrema_with_no_points_labels_an_empty_stack(fmt, capsys):
    """A three-body domain with no critical point prints a table with no
    rows, whose header still names the class column."""
    code, out = run_cli(["extrema", "--fn", "l1_S3", "--eta", "0:0.1", "--beta", "0:0.1",
                         "--format", fmt], capsys)
    assert code == 0
    if fmt == "csv":
        assert out == "eta,beta,value,kind,smooth,slocc_class\n"
    else:
        assert json.loads(out)["points"] == []


@pytest.mark.parametrize("tag", ["l1_S3", "vn_xi"])
def test_extrema_json_holds_the_numbers_of_the_csv_rows(tag, capsys):
    """A JSON point gives its coordinates and value as the floats of its
    CSV row, bit for bit, and smooth as a boolean; kind and slocc_class
    stay strings.  A curve, which has no three-qubit state, has no class."""
    code, out = run_cli(["extrema", "--fn", tag], capsys)
    assert code == 0
    header, rows = _csv_rows(out)
    assert ("slocc_class" in header) == (tag == "l1_S3")
    code, doc = run_cli(["extrema", "--fn", tag, "--format", "json"], capsys)
    assert code == 0
    points = json.loads(doc)["points"]
    assert len(points) == len(rows) > 0
    for row, point in zip(rows, points):
        assert sorted(point) == sorted(header)
        for name, cell in zip(header, row):
            value = point[name]
            if name == "smooth":
                assert type(value) is bool and cell == ("true" if value else "false")
            elif name in ("kind", "slocc_class"):
                assert type(value) is str and value == cell
            else:
                assert type(value) is float and value.hex() == float(cell).hex()


def test_state_ghz_report(capsys):
    code, out = run_cli(["state", "--eta", "1.0472", "--beta", "0.61548"], capsys)
    assert code == 0
    assert "GHZ-class" in out
    payload_line = [ln for ln in out.splitlines() if "three-tangle" in ln][0]
    assert abs(float(payload_line.split("=")[1]) - 1.0) < 1e-6
    l1_line = [ln for ln in out.splitlines() if "l1 norm" in ln][0]
    assert abs(float(l1_line.split("=")[1]) - 2.0) < 1e-6


def test_state_w_preimage_thetas(capsys):
    code, out = run_cli(["state", "--thetas", "0.3927,0.95532,1.1781"], capsys)
    assert code == 0
    assert "W-class" in out


def test_state_product_point(capsys):
    code, out = run_cli(["state", "--eta", "0", "--beta", "0"], capsys)
    assert code == 0
    assert "class        = product" in out


def test_state_json_format(capsys):
    code, out = run_cli(
        ["state", "--eta", "1.5708", "--beta", "0.61548", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["slocc_class"] == "W-class"
    assert abs(payload["l1"] - math.sqrt(3.0)) < 1e-4


def test_a_point_prints_the_same_l1_through_extrema_landscape_and_state(capsys):
    """One kernel per quantity: each default ``extrema`` row's value is,
    byte for byte, the value of a 1-point ``landscape`` section and the
    l1 that ``state`` prints, as text and as JSON, at the row's location."""
    code, out = run_cli(["extrema", "--fn", "l1_S3"], capsys)
    assert code == 0
    rows = _csv_rows(out)[1]
    assert len(rows) == 30
    for eta, beta, value, *_ in rows:
        code, section = run_cli(["landscape", "--fn", "l1_S3", "--section", f"eta={eta}",
                                 "--beta", f"{beta}:{beta}:1"], capsys)
        assert code == 0 and _csv_rows(section)[1] == [[eta, beta, value]]
        code, text = run_cli(["state", "--eta", eta, "--beta", beta], capsys)
        assert code == 0 and f"l1 norm      = {value}\n" in text
        code, doc = run_cli(["state", "--eta", eta, "--beta", beta, "--format", "json"], capsys)
        payload = json.loads(doc)
        assert [payload["eta"], payload["beta"], payload["l1"]] == [*map(float, (eta, beta, value))]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_state_prints_the_vn_sprime_landscape_as_cuts_1_and_3(fmt, capsys):
    """One kernel per quantity: at seeded points, the entropies of cuts 1
    and 3 that ``state`` prints are, byte for byte as text and bit for bit
    as JSON, the value of a 1-point ``landscape --fn vn_Sprime`` section at
    the same (eta, beta)."""
    rng = np.random.default_rng(5)
    for eta, beta in zip(map(cli.fmt, rng.uniform(0.0, 2.0 * math.pi, 200)),
                         map(cli.fmt, rng.uniform(-math.pi / 2, math.pi / 2, 200))):
        code, section = run_cli(["landscape", "--fn", "vn_Sprime", "--section", f"eta={eta}",
                                 "--beta", f"{beta}:{beta}:1"], capsys)
        assert code == 0
        [[_, _, value]] = _csv_rows(section)[1]
        code, out = run_cli(["state", "--eta", eta, "--beta", beta, "--format", fmt], capsys)
        assert code == 0
        if fmt == "text":
            for cut in (1, 3):
                assert f"entropy cut {cut}|rest = {value} bits\n" in out, (eta, beta, cut)
        else:
            entropies = json.loads(out)["vn_entropies_bits"]
            assert entropies["1"] == entropies["3"] == float(value), (eta, beta)


def test_state_and_reduce_print_the_parameters_of_a_block(capsys):
    """A triple typed on its own maps to the (eta, beta) that a block of
    triples holding it gives."""
    triple = random_constrained_triple(np.random.default_rng(8), size=64)
    params = angles_to_params(triple)
    for k in range(0, 64, 7):
        angles = ",".join(cli.fmt(t[k]) for t in (triple.t1, triple.t2, triple.t3))
        code, doc = run_cli(["state", "--thetas", angles, "--format", "json"], capsys)
        payload = json.loads(doc)
        assert code == 0 and (payload["eta"], payload["beta"]) == (params.eta[k], params.beta[k])
        code, out = run_cli(["reduce", "--thetas", angles], capsys)
        assert code == 0
        assert f"({cli.fmt(params.eta[k])}, {cli.fmt(params.beta[k])})" in out


def test_state_requires_parameters(capsys):
    code, _ = run_cli(["state"], capsys)
    assert code == 2


def test_state_rejects_off_constraint_thetas(capsys):
    code, _, err = run_cli_streams(["state", "--thetas", "0.1,0.2,0.3"], capsys)
    assert code == 2
    assert "constraint" in err


def test_reduce_constrained_triple(capsys):
    code, out = run_cli(["reduce", "--thetas", "0,0.7854,0.7854"], capsys)
    assert code == 0
    assert "PASS" in out
    residual = float(out.split("residual")[-1].split()[0])
    assert residual < 1e-11


def test_reduce_rejects_off_constraint(capsys):
    code, _, err = run_cli_streams(["reduce", "--thetas", "0.1,0.2,0.3"], capsys)
    assert code == 2
    assert "residual" in err


def test_reduce_thetas_honours_constraint_tol(capsys):
    # 4.3e-6 off the constraint: accepted at --constraint-tol 1e-3, so the
    # reduction runs and its residual, of the same order, meets --tol or not.
    argv = ["reduce", "--thetas", "0.1,0.19612,0.1", "--constraint-tol", "1e-3"]
    code, out = run_cli(argv, capsys)
    assert code == 1
    assert "FAIL" in out.splitlines()[-1]
    residual = float(out.split("residual")[-1].split()[0])
    assert 1e-6 < residual < 1e-4
    code, out = run_cli(argv + ["--tol", "1e-4"], capsys)
    assert code == 0
    assert "PASS" in out.splitlines()[-1]


def test_reduce_random_batch(capsys):
    code, out = run_cli(["reduce", "--random", "100", "--seed", "3"], capsys)
    assert code == 0
    assert "PASS" in out
    # the residual that the random-triples row of the retired
    # `verify --suite reduction --seed 7 --samples 20` printed: both run
    # random_reduction(20, 7)
    code, out = run_cli(["reduce", "--random", "20", "--seed", "7"], capsys)
    assert (code, out) == (0, "20 random constrained triples: max residual "
                              "6.7131781369677144e-16 (tol 1.0e-10) PASS\n")


# Each usage error and what it says: a value that starts with a minus
# sign reaches its own parser instead of being taken for an option, an axis
# flag is read whole, and a flag that verify no longer has is refused with
# any value and suite.
USAGE_ERRORS = {
    "verify --samples 0": "argument --samples: expected an integer >= 1, got '0'",
    "verify --suite ybe --samples -5": "argument --samples: expected an integer >= 1, got '-5'",
    "verify --suite tl --tol nan": "argument --tol: expected a finite number >= 0, got 'nan'",
    "reduce --random -3": "argument --random: expected an integer >= 1, got '-3'",
    "reduce --random 5 --tol inf": "argument --tol: expected a finite number >= 0, got 'inf'",
    "reduce --thetas nan,0,0": "argument --thetas: expected a finite number, got 'nan'",
    "state --eta nan --beta 0": "argument --eta: expected a finite number, got 'nan'",
    "state --eta 0 --beta inf": "argument --beta: expected a finite number, got 'inf'",
    "state --thetas nan,0,0": "argument --thetas: expected a finite number, got 'nan'",
    "state --eta 0 --beta 0 --tol nan": "argument --tol: expected a finite number >= 0, got 'nan'",
    "reduce --random 5 --thetas 0.1,0.2,0.3":
        "argument --thetas: not allowed with argument --random",
    "landscape --fn l1_wigner --section eta=1":
        "--section does not apply to the 1-parameter function l1_wigner",
    "landscape --fn l1_wigner --eta 0:1:5":
        "--eta does not apply to the 1-parameter function l1_wigner",
    "landscape --fn vn_xi --beta 0:1:5": "--beta does not apply to the 1-parameter function vn_xi",
    "landscape --fn l1_S3 --theta 0:1:5":
        "--theta does not apply to the 2-parameter function l1_S3",
    "extrema --fn l1_wigner --eta 0:1":
        "--eta does not apply to the 1-parameter function l1_wigner",
    "extrema --fn vn_xi --beta 0:1": "--beta does not apply to the 1-parameter function vn_xi",
    "extrema --fn l1_S3 --theta 0:1": "--theta does not apply to the 2-parameter function l1_S3",
    "landscape --fn l1_S3 --section eta=1 --eta 0:1:3":
        "--eta does not apply: --section eta=1 fixes that axis",
    "landscape --fn vn_Sprime --section beta=0.5 --beta 0:1:3":
        "--beta does not apply: --section beta=0.5 fixes that axis",
    "landscape --fn l1_Sprime --section beta=inf --format json":
        "--section needs a finite value, got 'beta=inf'",
    "landscape --fn vn_Sprime --section eta=nan": "--section needs a finite value, got 'eta=nan'",
    "landscape --fn l1_S3 --section eta=-inf --format json":
        "--section needs a finite value, got 'eta=-inf'",
    "verify --suite tl --perturb nan": "unrecognized arguments: --perturb nan",
    "verify --suite tl --perturb inf": "unrecognized arguments: --perturb inf",
    "verify --suite tl --perturb=-inf": "unrecognized arguments: --perturb=-inf",
    "verify --suite tl --tol -1": "argument --tol: expected a finite number >= 0, got '-1'",
    "state --eta 1 --beta 0.5 --tol -1": "argument --tol: expected a finite number >= 0, got '-1'",
    "landscape --fn l1_S3 --eta 0:1:2 --beta 0:1:5":
        "axis eta needs at least 3 samples for a grid, got 2",
    "landscape --fn vn_Sprime --beta 1:1:1": "axis beta needs at least 3 samples for a grid, got 1",
    "landscape --fn l1_S3 --section beta=abc":
        "--section needs a finite value, got 'beta=abc'",
    "landscape --fn l1_S3 --section gamma=1":
        "--section must be eta=VALUE or beta=VALUE, got 'gamma=1'",
    "landscape --fn l1_wigner --theta=": "--theta must look like start:stop:count, got ''",
    "landscape --fn l1_S3 --section=": "--section must be eta=VALUE or beta=VALUE, got ''",
    "landscape --fn vn_Sprime --eta= --beta 0:1:3": "--eta must look like start:stop:count, got ''",
    "extrema --fn l1_wigner --theta=": "--theta must look like start:stop, got ''",
    "extrema --fn l1_S3 --beta=": "--beta must look like start:stop, got ''",
    "landscape --fn l1_S3 --section beta=nan": "--section needs a finite value, got 'beta=nan'",
    "state --thetas 0,0.7853981633974483,0.7853981633974483 --eta 1 --beta 1":
        "--thetas does not combine with --eta or --beta",
    "state --thetas 0,0.7853981633974483,0.7853981633974483 --beta 0":
        "--thetas does not combine with --eta or --beta",
    "verify --perturb 1e-3": "unrecognized arguments: --perturb 1e-3",
    "verify --family type1": "unrecognized arguments: --family type1",
    "verify --suite braid --perturb 0.5": "unrecognized arguments: --perturb 0.5",
    "verify --suite ybe --perturb -1e-3": "unrecognized arguments: --perturb -1e-3",
    "verify --suite tl --family type1": "unrecognized arguments: --family type1",
    "verify --suite reduction --family type2": "unrecognized arguments: --family type2",
    "verify --suite tl --perturb -inf": "unrecognized arguments: --perturb -inf",
    "state --eta -inf --beta 0": "argument --eta: expected a finite number, got '-inf'",
    "state --eta 0 --beta -nan": "argument --beta: expected a finite number, got '-nan'",
    "extrema --fn l1_wigner --theta 0.2:1.4:7:junk":
        "--theta must look like start:stop, got '0.2:1.4:7:junk'",
    "extrema --fn l1_wigner --theta 0.2:1.4:abc": "--theta must look like start:stop, got '0.2:1.4:abc'",
    "extrema --fn vn_xi --theta 0.2": "--theta must look like start:stop, got '0.2'",
    "extrema --fn l1_S3 --beta -1:1:2.5": "--beta must look like start:stop, got '-1:1:2.5'",
    "extrema --fn vn_xi --theta 0.2:1.4:7": "--theta must look like start:stop, got '0.2:1.4:7'",
    "extrema --fn l1_wigner --coarse 400": "unrecognized arguments: --coarse 400",
    "extrema --tol 1e-8": "unrecognized arguments: --tol 1e-8",
    "extrema --fn l1_wigner --theta 1e13:1.00000000001e13":
        "axis theta: the float spacing at [10000000000000.0, 10000000000100.0] exceeds 1e-07",
    "extrema --eta -1e6:1e6": "the box could hold 16552120 critical points, above 10000",
    "extrema --fn l1_wigner --theta -1e5:1e5":
        "the box could hold 254648 critical points, above 10000",
    "landscape --fn l1_wigner --theta 0:1": "--theta must look like start:stop:count",
    "reduce --thetas 0,0,0 --constraint-tol -1": "--constraint-tol: expected a finite number >= 0",
    "reduce --thetas 0,0,0 --tol -1e-3": "argument --tol: expected a finite number >= 0, got '-1e-3'",
    "verify --suite ybe --seed -1": "argument --seed: expected an integer >= 0, got '-1'",
    "verify --suite tl --seed -1": "argument --seed: expected an integer >= 0, got '-1'",
    "reduce --random 5 --seed -1": "argument --seed: expected an integer >= 0, got '-1'",
    "reduce --random 0": "argument --random: expected an integer >= 1, got '0'",
    "verify --suite tl --samples 5": "--samples applies only to the ybe suite, not --suite tl",
    "verify --suite braid --seed 3": "--seed applies only to the ybe suite, not --suite braid",
    "verify --suite tl --seed 0": "--seed applies only to the ybe suite, not --suite tl",
    "verify --suite reduction --samples 20":
        "--samples applies only to the ybe suite, not --suite reduction",
    "verify --suite reduction --seed 7":
        "--seed applies only to the ybe suite, not --suite reduction",
    "reduce --thetas 0,0,0 --seed 0": "--seed applies only to --random",
    "reduce --random 5 --constraint-tol 1e-3":
        "--constraint-tol applies only to --thetas, not --random",
    "state --thetas 1e308,0,1e308": "angle triple (1e+308, 0.0, 1e+308) violates the constraint "
                                    "sin(t2)cos(t1-t3) = cos(t2)sin(t1+t3): residual nan > tol",
    "reduce --thetas 1e308,1e308,1e308": "angle triple (1e+308, 1e+308, 1e+308) violates the "
                                         "constraint sin(t2)cos(t1-t3) = cos(t2)sin(t1+t3): "
                                         "residual nan > tol",
}


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_vacuous_or_non_finite_input_is_usage_error(argv, capsys):
    """Exit 2 with the error, and numpy warns of nothing: t1 + t3 = inf
    once raised math's domain error on one path and warned on the other."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli_streams(argv.split(), capsys)
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert USAGE_ERRORS[argv] in err


@pytest.mark.parametrize("argv, axis", [
    (["landscape", "--fn", "l1_S3", "--eta", "-1e308:1e308:3", "--beta", "0:1:3"], "eta"),
    (["extrema", "--fn", "l1_wigner", "--theta", "-1e308:1e308"], "theta"),
], ids=["landscape", "extrema"])
def test_axis_whose_width_overflows_is_usage_error(argv, axis, capsys):
    """Finite bounds whose difference overflows name the axis and exit 2,
    before anything is sampled, so numpy warns of no overflow."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli_streams(argv, capsys)
    assert [str(w.message) for w in caught] == []
    assert code == 2 and out == ""
    assert err == (f"error: axis {axis} needs finite bounds and a finite width stop - start, "
                   f"got [-1e+308, 1e+308]\n")


@pytest.mark.parametrize("argv", [
    ["extrema", "--fn", "l1_wigner", "--theta", "0:1.7e308"],
    ["extrema", "--fn", "l1_S3", "--eta", "0:1.7e308"],
], ids=["curve", "surface"])
def test_extrema_near_the_float_range_prints_no_non_finite_cell(argv, capsys):
    """A box reaching toward the float range once refined to inf locations,
    printed as inf and nan cells with exit 0.  Exit 0 prints finite cells
    only, exit 2 one error line, and numpy warns of nothing either way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli_streams(argv, capsys)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        header, rows = _csv_rows(out)
        numbers = [float(cell) for row in rows for cell in row[:header.index("kind")]]
        assert all(map(math.isfinite, numbers)), out
    else:
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 298. GiB for an array with shape (200000, 200000) and data type "
     "float64", "Unable to allocate 298. GiB"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("argv, target", [
    (["landscape", "--fn", "l1_S3", "--eta", "0:1:200000", "--beta", "0:1:200000"], "sample"),
    (["extrema"], "find_critical_points"),
], ids=["landscape", "extrema"])
def test_allocation_failure_is_usage_error(argv, target, message, shown, monkeypatch, capsys):
    """A failed allocation exits 2 with one error line, not 1 (the
    tolerance code) with a traceback.  The failure is simulated: nothing
    here allocates a large array."""
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, target, refuse)
    code, out, err = run_cli_streams(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {shown}") and err.count("\n") == 1


@pytest.mark.parametrize("tag, axis", [(tag, axis) for tag in FUNCTIONS
                                       for axis in cli._axis_names()])
def test_axis_flags_follow_the_registry(tag, axis, capsys):
    """A function takes the flag of each of its axes, with a negative start
    too, and no other axis flag."""
    for argv in (["landscape", "--fn", tag, f"--{axis}", "-1:1:5"],
                 ["extrema", "--fn", tag, f"--{axis}", "-1:1"]):
        code, out, err = run_cli_streams(argv, capsys)
        if axis in FUNCTIONS[tag].chart.axes:
            assert (code, out.split(",")[0]) == (0, FUNCTIONS[tag].chart.axes[0]), err
        else:
            assert code == 2 and f"--{axis} does not apply" in err


def test_registered_function_gets_its_axis_flags(monkeypatch, capsys):
    """One registry entry over a chart with new axis names is all that
    ``landscape`` and ``extrema`` need.  The points of an entry whose chart
    declares a three-qubit state, whatever its axis names, are labelled
    with that state's class."""
    spec = FUNCTIONS["l1_S3"]
    renamed = dataclasses.replace(spec, tag="Y", chart=dataclasses.replace(spec.chart,
                                                                           axes=("e", "b")))
    monkeypatch.setitem(FUNCTIONS, "Y", renamed)
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    code, out, _ = run_cli_streams(["landscape", "--fn", "Y", "--e", "-1:1:3", "--b", "-1:1:3"],
                                   capsys)
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["e", "b", "value"] and len(rows) == 9
    code, out, _ = run_cli_streams(["landscape", "--fn", "Y", "--section", "e=0.5"], capsys)
    assert code == 0 and _csv_rows(out)[0] == ["e", "b", "value"]
    code, _, err = run_cli_streams(["landscape", "--fn", "Y", "--section", "eta=1"], capsys)
    assert code == 2 and "--section must be e=VALUE or b=VALUE, got 'eta=1'" in err
    code, _, err = run_cli_streams(["landscape", "--fn", "Y", "--eta", "0:1:3"], capsys)
    assert code == 2 and "--eta does not apply to the 2-parameter function Y" in err
    outputs = {}
    for tag in ("l1_S3", "Y"):
        code, out, _ = run_cli_streams(["extrema", "--fn", tag], capsys)
        assert code == 0
        header, rows = _csv_rows(out)
        assert header == [*FUNCTIONS[tag].chart.axes, "value", "kind", "smooth", "slocc_class"]
        outputs[tag] = rows
    assert {row[-1] for row in outputs["l1_S3"]} >= {"GHZ-class", "W-class"}
    assert outputs["Y"] == outputs["l1_S3"]
    code, out, _ = run_cli_streams(["extrema", "--fn", "Y", "--e", "0:1.1", "--b", "0:1"], capsys)
    assert code == 0 and [row[-1] for row in _csv_rows(out)[1]] == ["W-class", "GHZ-class"]


@pytest.mark.parametrize("argv", ["verify --suite tl --tol 0", "state --thetas 0,0,0 --tol 0",
                                  "reduce --thetas 0,0,0 --tol 0 --constraint-tol 0"])
def test_zero_tolerance_is_valid(argv, capsys):
    """A tolerance of 0 asks for exact residuals, which is no usage error."""
    assert run_cli_streams(argv.split(), capsys)[0] != 2


def test_unset_flags_take_their_defaults_where_read(capsys):
    """--samples, --seed and --constraint-tol, where a chosen suite or mode
    reads them, default to 1000, 0 and 1e-4.  JSON meta records only what
    the run read: verify's seed and samples when the ybe suite runs, and a
    landscape's section."""
    for argv, meta in [
        (["verify", "--suite", "tl"], {"tol": 1e-12}),
        (["verify", "--suite", "ybe", "--samples", "20"], {"tol": 1e-12, "samples": 20, "seed": 0}),
        (["landscape", "--fn", "vn_xi", "--theta", "0:1:3"], {}),
        (["landscape", "--fn", "l1_S3", "--section", "eta=0.5", "--beta", "0:1:3"],
         {"section": "eta=0.5"}),
    ]:
        code, out = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0 and json.loads(out)["meta"] == dict(meta, version=cli.__version__), argv
    near = "0.1,0.19612,0.1"  # 4.3e-6 off the constraint line
    for unset, default in [
        (["verify", "--suite", "ybe"], ["--samples", "1000", "--seed", "0"]),
        (["reduce", "--random", "20"], ["--seed", "0"]),
        (["reduce", "--thetas", near], ["--constraint-tol", "1e-4"]),
    ]:
        assert run_cli_streams(unset, capsys) == run_cli_streams(unset + default, capsys), unset


@pytest.mark.parametrize("raw", ["0.2:1.4:7", "0.2:1.4:-3", "0.2:1.4:"])
def test_extrema_box_side_takes_no_count(raw, capsys):
    """A count in an extrema box side, once silently ignored, is refused:
    there is no grid for it to set."""
    assert run_cli_streams(["extrema", "--fn", "vn_xi", "--theta", raw], capsys) == (
        2, "", f"error: --theta must look like start:stop, got {raw!r}\n")


@pytest.mark.parametrize("argv, patched", [
    (["verify", "--suite", "reduction"], "reduce_three_body"),
    (["verify", "--suite", "ybe", "--samples", "20"], "check_ybe"),
    (["reduce", "--random", "10"], "reduce_three_body"),
    (["verify", "--suite", "ybe", "--samples", "20", "--format", "json"], "check_ybe"),
], ids=["verify-reduction", "verify-ybe", "reduce-random", "verify-ybe-json"])
def test_nan_residual_fails(argv, patched, monkeypatch, capsys):
    """One NaN sample among finite ones must surface as a FAIL, not vanish
    into the worst-residual aggregate; JSON output writes it as null, since
    strict parsers reject a bare NaN token.  The patched residual function
    is batched, so the NaN goes into the third sample of each array of
    residuals it returns (the last item of ``reduce_three_body``'s tuple);
    the one residual of a single triple, as the reduction suite's GHZ and W
    checks read, is NaN itself."""
    real = getattr(checks, patched)

    def with_third_nan(residuals):
        if np.ndim(residuals) == 0:
            return math.nan
        residuals = residuals.copy()
        residuals[2] = math.nan
        return residuals

    def third_sample_nan(*args, **kwargs):
        out = real(*args, **kwargs)
        if isinstance(out, tuple):
            return (*out[:-1], with_third_nan(out[-1]))
        return with_third_nan(out)

    monkeypatch.setattr(checks, patched, third_sample_nan)
    code, out = run_cli(argv, capsys)
    assert code == 1
    if "json" in argv:
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")
        checks_out = json.loads(out, parse_constant=reject)["checks"]
        assert any(c["residual"] is None and c["pass"] is False for c in checks_out)
    else:
        assert any("FAIL" in ln and " nan " in f"{ln} " for ln in out.splitlines())


def test_bulk_csv_matches_per_cell_fmt():
    n = 6
    etas = np.array([-0.0, 1e-300, 0.1, 2.0 / 3.0, math.pi, -5e-324])
    values = np.array([0.30000000000000004, -1e-300, 1.0000000000000002,
                       123456789.12345679, 1.0 / 3.0, -0.0])
    beta = 0.61547970867038737  # a section's fixed coordinate
    expected = "eta,beta,value\n" + "".join(
        f"{cli.fmt(etas[k])},{cli.fmt(beta)},{cli.fmt(values[k])}\n" for k in range(n))
    section = cli._csv_mesh({"eta": etas, "beta": np.array([beta])}, values[:, None])
    assert _joined(section) == expected
    assert expected.splitlines()[1].startswith("-0,")
    curve = _joined(cli._csv_mesh({"theta": etas}, values))
    assert curve == "theta,value\n" + "".join(
        f"{cli.fmt(etas[k])},{cli.fmt(values[k])}\n" for k in range(n))


def test_grid_csv_matches_bulk_csv():
    etas = np.array([-0.0, 1e-300, 0.1, 2.0 / 3.0, math.pi])
    betas = np.array([-5e-324, 0.61547970867038737, -1.5707963267948966])
    values = np.array([0.30000000000000004, -1e-300, 1.0000000000000002, 123456789.12345679,
                       1.0 / 3.0, -0.0, 2.0, 1e22, -7.5, 0.0, 1e-17, 5.0, 6.0, 7.0, 8.0])
    values = values.reshape(etas.size, betas.size)
    mesh = np.meshgrid(etas, betas, indexing="ij")
    expected = _csv_numbers_reference({"eta": mesh[0], "beta": mesh[1], "value": values})
    assert _joined(cli._csv_mesh({"eta": etas, "beta": betas}, values)) == expected


def _bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


# signed zeros, subnormals and values whose 17 digits are all significant
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0 / 3.0,
               0.30000000000000004, 123456789.12345679]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _column(draw, n, repeats):
    """``n`` floats, NaN and +-inf included, that repeat, drawn from a pool
    of at most n // 3, or that are all distinct bit patterns.  A distinct
    column is built, not filtered: a draw that repeats an earlier bit
    pattern takes the next unused one, so no draw is rejected."""
    if repeats:
        pool = draw(st.lists(FLOATS, min_size=1, max_size=max(1, n // 3)))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    seen = []
    for x in draw(st.lists(FLOATS, min_size=n, max_size=n)):
        bits = _bits(x)
        while bits in seen:
            bits = (bits + 1) % 2 ** 64
        seen.append(bits)
    return np.array(seen, dtype=np.uint64).view(np.float64)


def _mesh_case(data, constant, repeats):
    """Axis points and values of a section (``constant``: a 1-point axis in
    either position), or of a curve or a grid, all repeating or all
    distinct; any float, NaN and +-inf included, may be a coordinate."""
    if constant:
        n = data.draw(st.integers(1, 40))
        shape = data.draw(st.sampled_from([(n, 1), (1, n)]))
    else:
        shape = data.draw(st.tuples(st.integers(1, 40))
                          | st.tuples(st.integers(1, 9), st.integers(1, 9)))
    names = ("theta",) if len(shape) == 1 else ("eta", "beta")
    coords = {name: data.draw(_column(k, repeats)) for name, k in zip(names, shape)}
    values = data.draw(_column(math.prod(shape), repeats)).reshape(shape)
    return coords, values


@pytest.mark.parametrize("repeats", [True, False], ids=["repeats", "distinct"])
@pytest.mark.parametrize("constant", [True, False], ids=["fixed-column", "free-column"])
@given(data=st.data())
def test_bulk_csv_matches_reference(repeats, constant, data):
    """The mesh writer gives the bytes of one %.17g pass over the columns of
    the broadcast ``ij`` mesh, for sections, curves and grids of repeating
    or distinct values."""
    coords, values = _mesh_case(data, constant, repeats)
    mesh = np.broadcast_arrays(*np.meshgrid(*coords.values(), indexing="ij", sparse=True))
    columns = {**dict(zip(coords, mesh)), "value": values}
    assert _joined(cli._csv_mesh(coords, values)) == _csv_numbers_reference(columns)


@pytest.mark.parametrize("repeats", [True, False], ids=["repeats", "distinct"])
@given(data=st.data())
def test_json_matches_reference(repeats, data):
    """Values, NaN and +-inf included, are rendered as json renders them,
    and the splice of the values array is not misled by a meta string that
    looks like it."""
    shape = data.draw(st.sampled_from([(40,), (3,), (5, 7), (9, 3)]))
    values = data.draw(_column(math.prod(shape), repeats)).reshape(shape)
    axes = [AxisSpec(name, 0.0, 1.0, k) for name, k in zip(("eta", "beta"), shape)]
    meta = {"section": '"values":[]'}
    assert (_joined(cli._json_text("l1_S3", axes, values, meta))
            == _json_text_reference("l1_S3", axes, values, meta))


def _block_column(rng, n):
    """``n`` seeded values: log-uniform over +-[1e-6, 1e17], with NaN,
    +-inf, +-0, a subnormal and powers of two sprinkled in."""
    values = np.exp(rng.uniform(math.log(1e-6), math.log(1e17), n)) * rng.choice([-1.0, 1.0], n)
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.5, 1.0]
    values[rng.integers(0, n, 2 * len(specials))] = specials * 2
    return values


BLOCK = cli.floattext.BLOCK


@pytest.mark.parametrize("shape", [
    # curves that end one value before, on and after a block boundary, the
    # second, so that each also crosses the first
    (2 * BLOCK - 1,), (2 * BLOCK,), (2 * BLOCK + 1,),
    (129, 131),  # a grid whose block boundaries fall inside rows
    (2 * BLOCK + 5, 1), (1, 2 * BLOCK + 5),  # sections longer than a block
], ids=str)
def test_writers_across_blocks(shape):
    """Both writers give the reference bytes when rows run over the block
    boundary of the formatter, whose Hypothesis tests draw fewer values:
    the CSV as its header and one chunk per block, the JSON as its head,
    one chunk per block and its tail."""
    rng = np.random.default_rng(sum(shape))
    names = ("theta",) if len(shape) == 1 else ("eta", "beta")
    coords = {name: _block_column(rng, k) for name, k in zip(names, shape)}
    values = _block_column(rng, math.prod(shape)).reshape(shape)
    mesh = np.broadcast_arrays(*np.meshgrid(*coords.values(), indexing="ij", sparse=True))
    columns = {**dict(zip(coords, mesh)), "value": values}
    blocks = -(-values.size // BLOCK)
    chunks = list(cli._csv_mesh(coords, values))
    assert len(chunks) == 1 + blocks
    assert _joined(chunks) == _csv_numbers_reference(columns)
    axes = [AxisSpec(name, 0.0, 1.0, k) for name, k in zip(names, shape) if k > 1]
    meta = {}
    chunks = list(cli._json_text("l1_S3", axes, values, meta))
    assert len(chunks) == 2 + blocks
    assert _joined(chunks) == _json_text_reference("l1_S3", axes, values, meta)


def test_writers_hold_a_few_blocks_not_the_document():
    """The figures' 200x200 surface, and an 800x800 grid whose CSV (35 MiB)
    and JSON (11 MiB) are streamed, each with a traced peak under 1.15
    MiB, one block's buffers: no layer holds the whole document.  With
    block temporaries kept alive, the 200x200 CSV peaked at 4.1 MiB, and
    with a block's cells kept while its table is squeezed, at 1.24 MiB."""
    for n in (200, 800):
        axes = [AxisSpec("eta", 0.0, 2.0 * math.pi, n), AxisSpec("beta", -1.5, 1.5, n)]
        values = sample("l1_S3", axes)
        coords = {a.name: a.points() for a in axes}
        writers = {"csv": lambda: cli._csv_mesh(coords, values),
                   "json": lambda: cli._json_text("l1_S3", axes, values, {})}
        for name, writer in writers.items():
            tracemalloc.start()
            try:
                size = sum(map(len, writer()))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert size > (10 * 2 ** 20 if n == 800 else 0) and peak < 1.15 * 2 ** 20, (
                n, name, size, peak)


def test_stdout_holds_one_block_as_text(monkeypatch):
    """A 400x400 l1_S3 CSV streamed to a text stdout: each block is
    decoded and written before the next is rendered, so the traced peak
    stays near the writer's own.  Keeping the previous block bound while
    the next one and its decoded copy were made peaked at 1.55 MiB."""
    axes = [AxisSpec("eta", 0.0, 2.0 * math.pi, 400), AxisSpec("beta", -1.5, 1.5, 400)]
    values = sample("l1_S3", axes)
    coords = {a.name: a.points() for a in axes}
    with open(os.devnull, "w", encoding="ascii") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._emit(None, cli._csv_mesh(coords, values))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.2 * 2 ** 20, peak


@pytest.mark.parametrize("argv, axes", [
    (["landscape", "--fn", "l1_S3", "--eta", "0:1:5", "--beta", "0:1:4"], 2),
    (["landscape", "--fn", "l1_S3", "--section", "beta=0.5", "--eta", "0:1:5"], 2),
    (["landscape", "--fn", "vn_xi", "--theta", "0:1:5"], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_axis_is_spaced_once_per_job(argv, axes, monkeypatch, capsys):
    """A job builds the points of each of its axes once: the sampler and
    the CSV coordinates read the same array."""
    calls, linspace = [], np.linspace

    def counted(*args, **kwargs):
        calls.append(args)
        return linspace(*args, **kwargs)

    monkeypatch.setattr(np, "linspace", counted)
    assert run_cli(argv, capsys)[0] == 0
    assert len(calls) == axes, calls


@pytest.mark.parametrize("argv, shape", [
    (["landscape", "--fn", "l1_S3", "--eta", "0:1:91", "--beta", "-1:1:181"], (91, 181)),
    (["landscape", "--fn", "vn_Sprime", "--section", "eta=0.5", "--beta", f"-1:1:{BLOCK + 1}"],
     (1, BLOCK + 1)),
    (["landscape", "--fn", "l1_Sprime", "--section", "beta=-0.5", "--eta", "0:6:9"], (9, 1)),
    (["landscape", "--fn", "l1_wigner", "--theta", f"-0:2:{2 * BLOCK}"], (2 * BLOCK,)),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_csv_job_formats_its_axis_points_once_and_each_block_once(argv, shape, monkeypatch,
                                                                  capsys):
    """A landscape CSV job formats all its axis points in one call and then
    each block of values in one call; the coordinate cells of a block's rows
    come by arithmetic on the flat index, with no np.unravel_index, and the
    output is its header and one chunk per block."""
    calls, chunks, cells = [], [], cli.floattext.cells

    def counted(values, shortest=False):
        calls.append(np.size(values))
        return cells(values, shortest)

    def unravel_index(*args, **kwargs):
        raise AssertionError("np.unravel_index called")

    def emit(path, stream):
        chunks.extend(stream)

    monkeypatch.setattr(cli.floattext, "cells", counted)
    monkeypatch.setattr(np, "unravel_index", unravel_index)
    monkeypatch.setattr(cli, "_emit", emit)
    assert run_cli(argv, capsys)[0] == 0
    size = math.prod(shape)
    blocks = [min(BLOCK, size - start) for start in range(0, size, BLOCK)]
    assert calls == [sum(shape)] + blocks
    assert len(chunks) == 1 + len(blocks)
    assert sum(chunk.count(b"\n") for chunk in chunks) == 1 + size


# a square grid of two blocks, the second a part of a row
SIDE = math.isqrt(BLOCK) + 1
TWO_BLOCK_GRID = ["landscape", "--fn", "l1_S3", "--eta", f"0:1:{SIDE}", "--beta", f"0:1:{SIDE}"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failure_mid_stream_leaves_the_output_file_as_it_was(fmt, tmp_path, monkeypatch,
                                                               capsys):
    """A grid of two blocks whose second block fails to format, after the
    first was written to the temporary file: exit 2 with one error line,
    and the target keeps its bytes and mode, with no temporary file left."""
    target = tmp_path / "grid.out"
    target.write_bytes(b"old\n")
    target.chmod(0o640)
    cells, written = cli.floattext.cells, []

    def second_block_fails(values, shortest=False):
        if np.size(values) == SIDE * SIDE - BLOCK:
            written.extend(p.stat().st_size for p in tmp_path.glob(".ybekit-*"))
            raise MemoryError
        return cells(values, shortest)

    monkeypatch.setattr(cli.floattext, "cells", second_block_fails)
    argv = TWO_BLOCK_GRID + ["--format", fmt, "--output", str(target)]
    assert run_cli_streams(argv, capsys) == (2, "", "error: out of memory\n")
    assert len(written) == 1 and written[0] > BLOCK  # the first block was on disk
    assert target.read_bytes() == b"old\n" and stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["grid.out"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_and_output_file_hold_the_same_bytes(fmt, tmp_path, capsys):
    argv = TWO_BLOCK_GRID + ["--format", fmt]
    code, out = run_cli(argv, capsys)
    path = tmp_path / f"grid.{fmt}"
    assert (code, run_cli(argv + ["--output", str(path)], capsys)) == (0, (0, ""))
    assert path.read_bytes() == out.encode("ascii")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_non_finite_landscape_writes_nothing(fmt, monkeypatch, capsys):
    """The whole grid is checked before the first chunk is written: a NaN
    in its last value, in the second block, leaves stdout empty."""
    spec = FUNCTIONS["l1_S3"]

    def nan_at_the_end(coords):
        values = spec.measure(coords).copy()
        values.flat[-1] = math.nan
        return values

    monkeypatch.setitem(FUNCTIONS, "l1_S3", reading(spec, nan_at_the_end))
    assert (run_cli_streams(TWO_BLOCK_GRID + ["--format", fmt], capsys)
            == (2, "", "error: landscape contains non-finite values\n"))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_state_accepts_exponent_form_negative(capsys):
    runs = [run_cli_streams(["state", "--eta", value, "--beta", "0.5"], capsys)
            for value in ("-1e-3", "-0.001")]
    assert runs[0] == runs[1]
    eta = ScatterParams(-0.001, 0.5).canonical().eta
    assert runs[0][0] == 0 and runs[0][1].startswith(f"eta  = {cli.fmt(eta)}\n")


# What main gives for each argv below: exit code, the start of stdout and
# the end of stderr.
NEGATIVE_VALUE_RUNS = {
    "landscape --fn l1_S3 --beta -1.57:1.57:200":
        (0, "eta,beta,value\n0,-1.5700000000000001,1\n", ""),
    "state --eta -1e-3 --bet -inf":
        (2, "", "ybekit state: error: argument --beta: expected a finite number, got '-inf'\n"),
    "verify --perturb -1e-3": (2, "", "ybekit: error: unrecognized arguments: --perturb -1e-3\n"),
    "verify --eta -1": (2, "", "ybekit: error: unrecognized arguments: --eta -1\n"),
    "verify --s -1":
        (2, "", "ybekit verify: error: ambiguous option: --s could match --suite, --samples, "
                "--seed\n"),
    "verify --help -1": (0, "usage: ybekit verify [-h] [--suite", ""),
    "--version -1": (0, f"ybekit {cli.__version__}\n", ""),
}


@pytest.mark.parametrize("argv, merged", [
    (["landscape", "--fn", "l1_S3", "--beta", "-1.57:1.57:200"],
     ["landscape", "--fn", "l1_S3", "--beta=-1.57:1.57:200"]),
    (["state", "--eta", "-1e-3", "--bet", "-inf"], ["state", "--eta=-1e-3", "--bet=-inf"]),
    # not an option of verify, a state option, ambiguous, a flag without a value
    (["verify", "--perturb", "-1e-3"], ["verify", "--perturb", "-1e-3"]),
    (["verify", "--eta", "-1"], ["verify", "--eta", "-1"]),
    (["verify", "--s", "-1"], ["verify", "--s", "-1"]),
    (["verify", "--help", "-1"], ["verify", "--help", "-1"]),
    (["--version", "-1"], ["--version", "-1"]),
])
def test_negative_values_join_only_value_options_of_the_subcommand(argv, merged, capsys):
    """A minus-signed value after an option of the subcommand that takes a
    value, named or abbreviated, is that option's value: the run prints and
    exits as the joined ``--flag=value`` form ``merged`` does.  After any
    other flag it stays a token of its own, which errors quote as typed."""
    code, out, err = run_cli_streams(argv, capsys)
    assert run_cli_streams(merged, capsys) == (code, out, err)
    want_code, want_out, want_err = NEGATIVE_VALUE_RUNS[" ".join(argv)]
    assert code == want_code and out.startswith(want_out) and err.endswith(want_err), err
    assert err.startswith("usage: ") == bool(want_err)


# minus-signed values a subcommand reads, in each form a user may type
NEGATIVE_VALUES = ["-1", "-1.5", "-.5", "-1e-3", "-1E+3", "-1:1", "-1e308:1e308:3",
                   "-1.5707963267948966:1.5707963267948966:400", "-0.2,0.1,0.3", "-1.csv",
                   "-inf", "-INF", "-Infinity", "-nan", "-NaN"]


def test_every_subcommand_reads_minus_signed_values_as_values():
    """argparse reads a token as a value when its negative-number matcher
    accepts it, unless an option string of the parser also matches it,
    which turns that off, or could be read from it: ``-i`` from ``-inf``.
    An argparse that changes these private names fails here, not on a
    command line."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        matcher = parser._negative_number_matcher
        assert [v for v in NEGATIVE_VALUES if not matcher.match(v)] == [], name
        assert not parser._has_negative_number_optionals, name
        for option in parser._option_string_actions:
            assert not matcher.match(option), (name, option)
            assert not any(word.startswith(option.lower()) for word in ("-inf", "-nan")), option


# Every kind of call the shared parser must survive, in an order that would
# show state carried from one call into the next.
REUSE_SEQUENCE = [
    (["verify", "--samples", "0"], 2),
    (["verify", "--suite", "reduction"], 0),
    (["--version"], 0),
    (["reduce", "--random", "5"], 0),
    (["reduce", "--thetas", "0,0.7854,0.7854"], 0),
    (["reduce", "--random", "5", "--thetas", "0,0.7854,0.7854"], 2),
    (["landscape", "--fn", "l1_S3", "--section", "beta=0.61548", "--eta", "0:6:5"], 0),
    (["landscape", "--fn", "l1_S3", "--eta", "0:6:5", "--beta", "-1:1:4"], 0),
    (["verify", "--suite", "tl", "--tol", "0"], 1),
    (["verify", "--suite", "tl"], 0),
    (["state", "--eta", "1.0472", "--beta", "0.61548", "--format", "json"], 0),
    (["state", "--eta", "1.0472", "--beta", "0.61548"], 0),
]


def _namespace(parser, argv, capsys):
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()


def test_shared_parser_reuse_is_stateless(monkeypatch, capsys):
    """One process, one parser: each call prints, writes to stderr and exits
    as it does with a parser of its own, and parses to the same namespace."""
    shared = []
    for argv, expected_code in REUSE_SEQUENCE:
        shared.append(run_cli_streams(argv, capsys))
        assert shared[-1][0] == expected_code, argv
        assert (_namespace(cli._shared_parser(), argv, capsys)
                == _namespace(cli.build_parser(), argv, capsys)), argv
    # the surface after a section is a surface, and verify passes again
    # after a failing run
    surface = shared[7][1].splitlines()
    assert surface[0] == "eta,beta,value" and len(surface) == 1 + 5 * 4
    assert "FAIL" in shared[8][1] and "FAIL" not in shared[9][1]

    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [run_cli_streams(argv, capsys) for argv, _ in REUSE_SEQUENCE]
    for argv, got, want in zip(REUSE_SEQUENCE, shared, fresh):
        assert got == want, argv


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    cli.main(["state", "--eta", "0", "--beta", "0"])
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for k in range(10):
        assert cli.main(["state", "--eta", str(0.1 * k), "--beta", "0.5"]) == 0
    capsys.readouterr()
    assert built == []
    # build_parser itself still builds a new parser on each call
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second and len(built) == 2 * 6


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Each ``ybekit`` line in README's sh blocks, as argv, with the exit
    code README gives it: 1 where its own comment or the comment lines
    just above it say ``exit 1``, else 0."""
    commands, in_sh, comments = [], False, ""
    for line in README.read_text().splitlines():
        command, _, comment = line.partition("#")
        if line.startswith("```"):
            in_sh, comments = line == "```sh", ""
        elif in_sh and command.strip().startswith("ybekit "):
            commands.append((shlex.split(command)[1:], 1 if "exit 1" in comments + comment else 0))
            comments = ""
        elif in_sh:
            comments = comments + comment if line.strip() else ""
    return commands


def test_readme_command_lines_give_the_exit_codes_readme_states(capsys):
    commands = _readme_commands()
    assert len(commands) >= 14 and any(code == 1 for _, code in commands), commands
    for argv, expected in commands:
        code, _, err = run_cli_streams(argv, capsys)
        assert code == expected, (argv, err)


def test_readme_names_only_flags_that_exist():
    """Every ``--flag`` README names is an option of a subcommand or of
    a script in ``scripts/``, so no removed flag lingers in the docs."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    known = {"--help", "--version"}
    for parser in subparsers.choices.values():
        known.update(parser._option_string_actions)
    for script in (README.parent / "scripts").glob("*.py"):
        known.update(re.findall(r'add_argument\("(--[a-z-]+)"', script.read_text()))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text()))
    assert named and named <= known, sorted(named - known)


def test_readme_states_each_charts_default_sample_count():
    """README's default counts per axis are the charts' ``samples``."""
    text = " ".join(README.read_text().split())
    surface, curve = map(int, re.search(r"at (\d+) points per surface axis and (\d+) on a "
                                        r"curve", text).groups())
    for spec in FUNCTIONS.values():
        assert spec.chart.samples == {2: surface, 1: curve}[len(spec.chart.axes)], spec.tag


# Functions in src/ybekit that no subcommand enters, each with the reason it stays.
UNREACHED = {
    "tensor.kron": "perfbench/tracing.py counts its calls by name and fails without it",
    "tensor.kron_all": "perfbench/tracing.py counts its calls by name and fails without it",
    "fusionbasis.LeakageError.__init__": "no valid input leaks out of the fusion span",
}

# Runs every subcommand on tiny inputs under sys.setprofile and prints the
# exit codes, every function and property getter whose code lives in the
# package directory (dataclass-generated methods have another co_filename),
# and those of them that were entered.
_TRAFFIC = r"""
import contextlib, importlib, inspect, io, json, os, pkgutil, sys

entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
import ybekit
from ybekit import cli

out = sys.argv[1]
ghz = "0,0.7853981633974483,0.7853981633974483"
runs = [["verify", "--tol", "0", "--samples", "2"],
        ["verify", "--samples", "2", "--format", "json", "--output", os.path.join(out, "v")],
        ["reduce", "--random", "2"], ["reduce", "--thetas", ghz],
        ["state", "--eta", "1", "--beta", "-0.6"], ["state", "--thetas", ghz, "--format", "json"],
        ["state", "--thetas", "0.1,0.2,0.3"]]
for tag, spec in cli.FUNCTIONS.items():
    axes = [f"--{name}=0:1:5" for name in spec.chart.axes]
    runs += [["landscape", "--fn", tag, *axes],
             ["landscape", "--fn", tag, *axes, "--format", "json", "--output", os.path.join(out, "l")],
             ["extrema", "--fn", tag],
             ["extrema", "--fn", tag, f"--{spec.chart.axes[0]}=0:1", "--format", "json",
              "--output", os.path.join(out, "e")]]
    if len(spec.chart.axes) == 2:
        runs.append(["landscape", "--fn", tag, f"--section={spec.chart.axes[0]}=0.5",
                     f"--{spec.chart.axes[1]}=0:1:5"])
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)

home = os.path.dirname(ybekit.__file__)
functions = {}
for info in pkgutil.iter_modules([home]):
    module = importlib.import_module("ybekit." + info.name)
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue  # imported from elsewhere, or not a function or class
        found = [(name, value)]
        if inspect.isclass(value):
            found = [(f"{name}.{attr}", getattr(item, "fget", item))
                     for attr, item in vars(value).items()
                     if inspect.isfunction(item) or isinstance(item, property)]
        for qualname, fn in found:
            code = getattr(inspect.unwrap(fn), "__code__", None)
            if code is not None and os.path.dirname(code.co_filename) == home:
                functions[f"{info.name}.{qualname}"] = code
print(json.dumps({"codes": codes, "defined": sorted(functions),
                  "entered": sorted(n for n, code in functions.items() if code in entered)}))
"""


def test_every_src_function_is_entered_by_a_subcommand(tmp_path):
    """src holds what the program runs: a function that no subcommand
    enters belongs with the test oracles in tests/reference.py, unless
    UNREACHED names it with its reason.  A fresh process, so that the
    cached parser and fusion bases are built under the profiler."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _TRAFFIC, str(tmp_path)], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # the zero-tolerance suites fail, the off-line triple is refused, the rest pass
    assert report["codes"] == [1, 0, 0, 0, 0, 0, 2] + [0] * (len(report["codes"]) - 7)
    defined, entered = set(report["defined"]), set(report["entered"])
    assert set(UNREACHED) <= defined, set(UNREACHED) - defined
    assert not set(UNREACHED) & entered, set(UNREACHED) & entered
    assert defined - entered == set(UNREACHED), defined - entered - set(UNREACHED)

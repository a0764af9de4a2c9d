#!/usr/bin/env python3
"""The golden corpus: fixed argvs of every ybekit subcommand and of the
figure script, recorded as digests in tests/golden.json.

For each argv the manifest holds the exit code and, for stdout, stderr and
each file the argv writes, the sha256, the byte count and a 6-hex-digit
digest of each line, from which a comparison names the first line that
differs.  Every argv runs in-process, in a fresh temporary working
directory, so an ``--output`` path is relative and the bytes do not depend
on where the corpus runs.  The manifest also records the Python and numpy
versions it was written under.

    python scripts/golden.py            # compare; exit 1 naming each moved argv
    python scripts/golden.py --write    # rewrite tests/golden.json

A change that moves output on purpose rewrites the manifest, and its diff
names the argvs that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden.json"
FIGURE_SCRIPT = "scripts/make_figure_data.py"

PI, HALF_PI, TWO_PI = "3.1415926535897931", "1.5707963267948966", "6.2831853071795862"
BETA_STAR = "0.6154797086703873"
ETA_AXIS, BETA_AXIS, THETA_AXIS = f"0:{TWO_PI}:13", f"-{HALF_PI}:{HALF_PI}:11", f"0:{HALF_PI}:101"
TRIPLE = "0.3,-0.20146651213190997,-0.45"  # on the constraint line
TAGS = ["l1_S3", "l1_Sprime", "vn_Sprime", "l1_wigner", "vn_xi"]


def _landscapes() -> list[str]:
    argvs = []
    for tag in TAGS[:3]:
        surface = f"landscape --fn {tag} --eta {ETA_AXIS} --beta {BETA_AXIS}"
        argvs += [surface, f"{surface} --format json",
                  f"landscape --fn {tag} --section beta={BETA_STAR} --eta 0:{TWO_PI}:101",
                  f"landscape --fn {tag} --section eta={HALF_PI} --beta {BETA_AXIS} --format json"]
    for tag in TAGS[3:]:
        argvs += [f"landscape --fn {tag} --theta {THETA_AXIS}",
                  f"landscape --fn {tag} --theta {THETA_AXIS} --format json"]
    return argvs + [f"landscape --fn vn_Sprime --eta 0:{PI}:7 --beta 0:1:5 --output out.csv",
                    f"landscape --fn l1_wigner --theta -1:1:9 --format json --output out.json",
                    "landscape --fn l1_S3 --theta 0:1:3",
                    "landscape --fn vn_xi --section theta=0.5",
                    # each chart's default box and sample count
                    "landscape --fn vn_xi",
                    f"landscape --fn l1_S3 --section beta={BETA_STAR}",
                    f"landscape --fn vn_Sprime --section eta={HALF_PI} --format json"]


CORPUS = [
    "--version",
    "verify",
    "verify --format json --seed 1 --samples 50",
    "verify --suite ybe --samples 40 --output out.txt",
    "verify --suite reduction --format json --output out.json",
    "verify --suite reduction --samples 20",
    "verify --suite tl --tol 0",
    "verify --suite braid --seed 3",
    *_landscapes(),
    *(f"extrema --fn {tag}" for tag in TAGS),
    "extrema --format json",
    "extrema --fn vn_xi --format json --output out.json",
    "extrema --fn l1_Sprime --eta 0.5:2.5 --beta -1:1",
    "extrema --fn vn_Sprime --eta -10:10 --beta -4:4",
    "extrema --fn l1_Sprime --format json",
    "extrema --fn vn_Sprime --format json",
    "extrema --fn l1_S3 --eta 0:1:x",
    "extrema --fn vn_xi --theta 0.2:1.4:7",
    "extrema --coarse 400",
    "extrema --tol 1e-8",
    "extrema --fn l1_wigner --theta 1e13:1.00000000001e13",
    "extrema --eta -1e6:1e6",
    f"state --eta 1.0471975511965976 --beta {BETA_STAR}",
    f"state --eta {HALF_PI} --beta {BETA_STAR} --format json",
    "state --eta 0 --beta 0.5",
    f"state --eta {HALF_PI} --beta 0",
    "state --eta -7 --beta 4 --format json",
    f"state --thetas {TRIPLE}",
    f"state --thetas {TRIPLE} --format json",
    "state --thetas 0.1,0.2,0.3",
    "reduce --random 200",
    "reduce --random 200 --seed 5",
    "reduce --random 20 --seed 7",
    f"reduce --thetas {TRIPLE}",
    "reduce --thetas -1.1,-2.098950083168676,0.7",
    f"{FIGURE_SCRIPT} --grid 21 --outdir out",
]


def _digest(data: bytes) -> dict:
    lines = "".join(hashlib.sha256(line).hexdigest()[:6] for line in data.splitlines())
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "lines": lines}


def run(argv: str) -> tuple[dict, dict[str, bytes]]:
    """Run one corpus argv in a fresh temporary directory: its manifest
    entry, and the bytes of each stream and file by name."""
    from ybekit.cli import main

    words = argv.split()
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    if words[0] == FIGURE_SCRIPT:
                        saved, sys.argv = sys.argv, words
                        try:
                            runpy.run_path(str(ROOT / FIGURE_SCRIPT), run_name="__main__")
                        finally:
                            sys.argv = saved
                        code = 0
                    else:
                        code = main(words)
                except SystemExit as exc:  # argparse, and the script's exit
                    code = exc.code if isinstance(exc.code, int) else 1
            files = {str(path.relative_to(tmp)): path.read_bytes()
                     for path in sorted(Path(tmp).rglob("*")) if path.is_file()}
        finally:
            os.chdir(cwd)
    streams = {"stdout": stdout.getvalue().encode(), "stderr": stderr.getvalue().encode(), **files}
    entry = {"exit": code, "stdout": _digest(streams["stdout"]),
             "stderr": _digest(streams["stderr"]),
             "files": {name: _digest(data) for name, data in files.items()}}
    return entry, streams


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def differences(argv: str, expected: dict, entry: dict, streams: dict[str, bytes]) -> list[str]:
    """How ``entry`` departs from the manifest's ``expected``: one line per
    moved exit code or stream, naming the first differing line."""
    found = []
    if entry["exit"] != expected["exit"]:
        found.append(f"{argv}: exit {entry['exit']}, recorded {expected['exit']}")
    want = {"stdout": expected["stdout"], "stderr": expected["stderr"], **expected["files"]}
    have = {"stdout": entry["stdout"], "stderr": entry["stderr"], **entry["files"]}
    for name in sorted(want.keys() | have.keys()):
        if name not in have or name not in want:
            found.append(f"{argv}: {name} {'not written' if name in want else 'not recorded'}")
        elif have[name]["sha256"] != want[name]["sha256"]:
            lines = streams[name].splitlines()
            old, new = want[name]["lines"], have[name]["lines"]
            k = next((k for k in range(0, max(len(old), len(new)), 6)
                      if old[k:k + 6] != new[k:k + 6]), min(len(old), len(new)))
            n = k // 6
            text = lines[n][:120].decode(errors="replace") if n < len(lines) else "<end of output>"
            found.append(f"{argv}: {name} differs ({have[name]['bytes']} bytes, recorded "
                         f"{want[name]['bytes']}); first differing line {n + 1}: {text}")
    return found


def compare() -> list[str]:
    """Every difference between the corpus as it runs now and the manifest."""
    manifest = json.loads(MANIFEST.read_text())
    found = []
    if list(manifest["argvs"]) != CORPUS:
        found.append("the corpus argvs are not the manifest's; rewrite it with --write")
    for argv in CORPUS:
        if argv in manifest["argvs"]:
            found += differences(argv, manifest["argvs"][argv], *run(argv))
    if found and manifest["versions"] != versions():
        found.append(f"recorded under {manifest['versions']}, running {versions()}")
    return found


def write() -> None:
    manifest = {"versions": versions(), "argvs": {argv: run(argv)[0] for argv in CORPUS}}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the manifest")
    args = parser.parse_args()
    if args.write:
        write()
        print(f"wrote {len(CORPUS)} argvs to {MANIFEST.relative_to(ROOT)}")
        return 0
    found = compare()
    sys.stdout.writelines(line + "\n" for line in found)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

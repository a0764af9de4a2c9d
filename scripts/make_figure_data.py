#!/usr/bin/env python3
"""Emit the landscape/curve data sets behind the standard plots.

Writes CSV files into --outdir (default: out/):

  two_qubit_l1.csv            |cos|+|sin| of the spin-1/2 rotation matrix
  two_qubit_entropy.csv       entanglement entropy of the two-qubit output
  l1_surface.csv              l1 norm of the three-body matrix over (eta, beta)
  l1_section_beta_star.csv    eta section through the GHZ/W points
  l1_section_eta_half_pi.csv  beta section through the W points
  entropy_section_beta_star.csv  fusion-space entropy along the same section
  extrema.csv                 l1_S3's critical points with SLOCC labels, one
                              row per preimage in the default (eta, beta) box

Every file goes through the ybekit CLI, so the output format matches what
`ybekit landscape`/`ybekit extrema` produce by hand.
"""

import argparse
import os
import sys

from ybekit.cli import main as ybekit_main
from ybekit.threebody import BETA_STAR


def emit(outdir: str, name: str, args: list[str]) -> None:
    path = os.path.join(outdir, name)
    code = ybekit_main(args + ["--output", path])
    if code != 0:
        raise SystemExit(f"ybekit exited with {code} while writing {name}")
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--grid", type=int, default=200, help="surface samples per axis")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    beta_star = format(BETA_STAR, ".17g")
    n = args.grid

    emit(args.outdir, "two_qubit_l1.csv",
         ["landscape", "--fn", "l1_wigner", "--theta", "0:1.5707963267948966:500"])
    emit(args.outdir, "two_qubit_entropy.csv",
         ["landscape", "--fn", "vn_xi", "--theta", "0:1.5707963267948966:500"])
    emit(args.outdir, "l1_surface.csv",
         ["landscape", "--fn", "l1_S3",
          "--eta", f"0:6.283185307179586:{n}",
          "--beta", f"-1.5707963267948966:1.5707963267948966:{n}"])
    emit(args.outdir, "l1_section_beta_star.csv",
         ["landscape", "--fn", "l1_S3", "--section", f"beta={beta_star}",
          "--eta", "0:6.283185307179586:1000"])
    emit(args.outdir, "l1_section_eta_half_pi.csv",
         ["landscape", "--fn", "l1_S3", "--section", "eta=1.5707963267948966",
          "--beta", "-1.5707963267948966:1.5707963267948966:1000"])
    emit(args.outdir, "entropy_section_beta_star.csv",
         ["landscape", "--fn", "vn_Sprime", "--section", f"beta={beta_star}",
          "--eta", "0:6.283185307179586:1000"])
    emit(args.outdir, "extrema.csv", ["extrema", "--fn", "l1_S3"])
    return 0


if __name__ == "__main__":
    sys.exit(main())

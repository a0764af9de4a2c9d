import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# file -> (header, data rows) at --grid 20
FIGURE_FILES = {
    "two_qubit_l1.csv": ("theta,value", 500),
    "two_qubit_entropy.csv": ("theta,value", 500),
    "l1_surface.csv": ("eta,beta,value", 20 * 20),
    "l1_section_beta_star.csv": ("eta,beta,value", 1000),
    "l1_section_eta_half_pi.csv": ("eta,beta,value", 1000),
    "entropy_section_beta_star.csv": ("eta,beta,value", 1000),
    "extrema.csv": ("eta,beta,value,kind,smooth,slocc_class", 18),  # the l1_S3 critical set
}


def test_figure_script_writes_every_file(tmp_path):
    """``scripts/make_figure_data.py`` in a fresh process, killed after 60 s
    like the other subprocess tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_figure_data.py"),
         "--grid", "20", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIGURE_FILES)
    for name, (header, rows) in FIGURE_FILES.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header, name
        assert len(lines) - 1 == rows, name

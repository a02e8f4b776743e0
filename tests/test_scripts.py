"""Smoke tests for the example scripts: each runs in its own interpreter,
exits 0 and prints the lines pinned here.  Together they exercise
`sum_set`, `classify` on systems and words, `attractor_points` and the CLI's
CSV writers from outside the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import moranspectra

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    src = str(Path(moranspectra.__file__).parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_classifier_gallery():
    rows = [re.split(r"\s{2,}", line)[:3] for line in run_script("classifier_gallery.py")]
    assert rows == [
        ["constant (3I, D0)", "NotSpectral", "T1.4"],
        ["preperiod 3I then constant 4I", "Spectral", "T1.4"],
        ["constant ([[4,2],[2,4]], D0)", "Spectral", "T1.4"],
        ["constant (2I, D0)", "Spectral", "T1.6"],
        ["scales 9 then 3", "Spectral", "T1.6"],
        ["scales 3 then 9", "NotSpectral", "T1.6"],
        ["scales 3, 5 then constant 7", "NotSpectral", "C5.1"],
        ["word (1 2)^inf over 2I", "Spectral", "T1.5"],
        ["word 2 3^inf over 2I", "NotSpectral", "T1.5"],
        ["word 2^inf over 2I", "Spectral", "T1.5"],
        ["word 1 2^inf over 2I", "NotSpectral", "T1.5"],
        ["constant (2I, 16-point sumset)", "OutOfTheory", "-"],
    ]


def test_completeness_contrast():
    lines = run_script("completeness_contrast.py", 4)
    # The lattice rows end in a wall time, so only their first four columns are pinned.
    assert [line.split()[:4] for line in lines[2:4]] == [
        ["2", "25", "0.743438", "0.256562"],
        ["4", "81", "0.799777", "0.200223"],
    ]
    assert [line.split() for line in lines[7:]] == [
        ["1", "4", "0.464926"],
        ["2", "16", "0.526728"],
        ["3", "64", "0.546563"],
        ["4", "256", "0.557381"],
        ["5", "1024", "0.564448"],
    ]


def test_tile_portraits(tmp_path):
    lines = run_script("tile_portraits.py", tmp_path, 3, 5)
    names = ["tile_2i", "fractal_4i", "shear", "rotation_t3"]
    assert lines == [f"{n}: 64 attractor points, 5x5 grid -> {tmp_path}" for n in names]
    for n in names:
        assert len((tmp_path / f"{n}_attractor.csv").read_text().splitlines()) == 1 + 64
        assert len((tmp_path / f"{n}_grid.csv").read_text().splitlines()) == 1 + 25

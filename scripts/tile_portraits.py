#!/usr/bin/env python3
"""Emit attractor point clouds and |mu^| grids for a small system gallery.

Writes CSVs under the output directory (default ./portraits):
  <name>_attractor.csv   columns x,y          (depth-k partial sums)
  <name>_grid.csv        columns x,y,absval   (|mu^| on a box grid)

Usage: python scripts/tile_portraits.py [outdir] [depth] [grid]
"""

import sys
from pathlib import Path

from moranspectra import Mat2, MoranSystem, attractor_points, canonical_digits, scaled_canonical
from moranspectra.cli import write_attractor_csv, write_fourier_grid_csv

GALLERY = {
    "tile_2i": MoranSystem.constant(Mat2.scalar(2), canonical_digits()),
    "fractal_4i": MoranSystem.constant(Mat2.scalar(4), canonical_digits()),
    "shear": MoranSystem.constant(Mat2(2, 2, 0, 2), canonical_digits()),
    "rotation_t3": MoranSystem.constant(Mat2(0, -2, 2, 0), scaled_canonical(3)),
}


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("portraits")
    depth = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    grid = int(sys.argv[3]) if len(sys.argv) > 3 else 81
    outdir.mkdir(parents=True, exist_ok=True)
    for name, sysm in GALLERY.items():
        points = attractor_points(sysm, depth)
        count = write_attractor_csv(outdir / f"{name}_attractor.csv", points)
        write_fourier_grid_csv(outdir / f"{name}_grid.csv", sysm, 4.0, grid, 1e-6)
        print(f"{name}: {count} attractor points, {grid}x{grid} grid -> {outdir}")


if __name__ == "__main__":
    main()

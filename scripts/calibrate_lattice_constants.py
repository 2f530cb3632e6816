#!/usr/bin/env python3
"""Calibration run behind the frozen lattice constants.

Replays the seeded 100-instance corpus and reports the extreme statistics
that justify the frozen point-count constant (256) and short-vector
constant (8), plus the sharp second-minimum ratio.  Run from the repository
root:

    python3 scripts/calibrate_lattice_constants.py
"""

import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from qcl.lattices import (C_GLOBAL, C_SHORT, instance_corpus, lattice_basis,
                          lattice_point_count, minkowski_bracket,
                          eta_congruence_checks, successive_minima)

SEED = 20260823
COUNT = 100


def main():
    t0 = time.time()
    corpus = instance_corpus(COUNT, SEED)
    blob = json.dumps([[i["H"], i["K"], i["m"], list(i["eta"].c),
                        list(i["m0"].c)] for i in corpus])
    print(f"corpus: {COUNT} instances, seed {SEED}, "
          f"sha256 {hashlib.sha256(blob.encode()).hexdigest()[:16]}")

    worst_ratio = 0.0
    worst_l4 = 0.0
    worst_l2 = None
    bracket_violations = 0
    for inst in corpus:
        lat = lattice_basis(inst["H"], inst["K"], inst["m"], inst["eta"],
                            inst["m0"])
        mins = successive_minima(lat)
        prod, lo, hi = minkowski_bracket(lat, mins)
        if not lo <= prod <= hi:
            bracket_violations += 1
        worst_l4 = max(worst_l4,
                       float(mins[3]) / math.sqrt(inst["K"] * inst["m"]))
        if inst["H"] == 1:
            ratio = mins[1] ** 2 / Fraction(inst["K"])
            if worst_l2 is None or ratio < worst_l2:
                worst_l2 = ratio
        rep = lattice_point_count(lat, 4 * inst["K"])
        worst_ratio = max(worst_ratio, rep["ratio"])
        eta_congruence_checks(inst["eta"], inst["K"], seed=SEED)

    print(f"max point-count ratio: {worst_ratio:.3f} "
          f"(frozen constant {C_GLOBAL})")
    print(f"max lambda4 / sqrt(K*m): {worst_l4:.3f} "
          f"(short-vector constant {C_SHORT})")
    print(f"min lambda2^2 / K at H=1: {float(worst_l2):.4f} "
          f"(>= 1/12 = {1 / 12:.4f})")
    print(f"minkowski bracket violations: {bracket_violations}")
    print(f"total {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

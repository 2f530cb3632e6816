"""Acceptance gate.

Each test pins one acceptance criterion at its stated scale and tolerance.
The audit-suite criteria run through the command-line interface in three
configurations (cache-cold single-thread, cache-bypass four-thread,
cache-warm); byte-identity across the three doubles as the determinism
criterion.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

SEED = "20260823"
SUITES = ["gauss-laws", "prime-case", "local-integrals", "densities",
          "lattices", "geometry", "delta", "counting"]
RUNTIME_LIMITS = {"gauss-laws": 60, "prime-case": 300,
                  "local-integrals": 300, "densities": 300,
                  "lattices": 300, "geometry": 120, "delta": 120,
                  "counting": 300}


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    env = dict(os.environ, QCL_CACHE_DIR=str(cache))
    base = [sys.executable, "-m", "qcl.cli", "--seed", SEED]
    out = {}
    for suite in SUITES:
        t0 = time.perf_counter()
        cold = subprocess.run(base + ["--threads", "1", "audit", suite],
                              capture_output=True, env=env)
        elapsed = time.perf_counter() - t0
        four = subprocess.run(base + ["--no-cache", "--threads", "4",
                                      "audit", suite],
                              capture_output=True, env=env)
        warm = subprocess.run(base + ["--threads", "1", "audit", suite],
                              capture_output=True, env=env)
        out[suite] = {"runs": (cold, four, warm), "seconds": elapsed,
                      "doc": json.loads(cold.stdout)}
    return out


def _assert_suite(suite_runs, name):
    entry = suite_runs[name]
    for proc in entry["runs"]:
        assert proc.returncode == 0, proc.stderr.decode()
    assert entry["doc"]["result"]["passed"] is True
    assert entry["seconds"] < RUNTIME_LIMITS[name], (
        f"{name} took {entry['seconds']:.1f}s")
    return {c["name"]: c for c in entry["doc"]["result"]["checks"]}


def test_criterion_01_gauss_sum_laws(suite_runs):
    checks = _assert_suite(suite_runs, "gauss-laws")
    # three primes, all valuation triples in [0,3]^3, >= 20 unit parts each
    assert set(checks) == {"laws-p3", "laws-p5", "laws-p7"}
    for c in checks.values():
        assert int(c["checked"]) >= 64 * 20


def test_criterion_02_prime_level_identities(suite_runs):
    checks = _assert_suite(suite_runs, "prime-case")
    assert int(checks["identity-q3-n1"]["checked"]) >= 500
    assert int(checks["identity-q3-n2"]["checked"]) >= 500
    assert int(checks["closed-count-q35"]["checked"]) == 4


def test_criterion_03_local_integral_audit(suite_runs):
    checks = _assert_suite(suite_runs, "local-integrals")
    assert set(checks) == {"audit-p3-n1", "audit-p3-n2",
                           "audit-p5-n1", "audit-p5-n2"}
    for c in checks.values():
        assert int(c["checked"]) >= 200
        assert int(c["nonzero"]) > 0


def test_criterion_04_densities():
    from qcl.densities import (density_tail_bracket, nonsplit_density_two,
                               split_density, split_density_exhaustive)
    t0 = time.perf_counter()
    # convolution engine equals exhaustion wherever both run
    for p, m, n in [(3, 1, 1), (3, 1, 2), (5, 1, 1), (3, 2, 1)]:
        assert split_density(p, m, n) == split_density_exhaustive(p, m, n)
    # split tail bracket at five slots, p = 3
    bound = density_tail_bracket(3, 5)
    assert abs(bound - 0.696550) < 1e-5
    for m in (1, 2):
        assert abs(float(split_density(3, m, 5)) - 1.0) <= bound
    # nonsplit densities at 2: positive and stabilizing
    ds = [nonsplit_density_two(m, 5) for m in (1, 2, 3)]
    assert ds == [Fraction(4), Fraction(91, 16), Fraction(1549, 256)]
    assert all(d > 0 for d in ds)
    assert abs(ds[2] - ds[1]) < abs(ds[1] - ds[0])
    assert time.perf_counter() - t0 < 300


def test_criterion_05_representation_numbers():
    from qcl.lattices import rep_number
    t0 = time.perf_counter()
    for m in range(1, 501):
        enumerated, formula = rep_number(m)
        assert enumerated == formula
    assert time.perf_counter() - t0 < 60


def test_criterion_06_lattice_instances(suite_runs):
    checks = _assert_suite(suite_runs, "lattices")
    assert int(checks["containment"]["instances"]) == 100
    assert int(checks["minima-and-bracket"]["h1_instances"]) > 0
    assert int(checks["theta-and-short-vectors"]["instances"]) == 100


def test_criterion_06_second_minimum_constant():
    # the quarter-strength second-minimum bound fails under the sup-norm
    # convention; an explicit certificate pins the failure, while the
    # norm-form facts behind the corrected twelfth-strength bound hold
    from qcl.algebra import HurwitzQuat
    M = HurwitzQuat(-3, 1, 3, 3)
    skew = M - M.conjugate()
    assert skew.nrd() == 19 and skew.nrd() % 19 == 0
    assert Fraction(max(abs(c) for c in M.c), 2) ** 2 < Fraction(19, 4)
    assert M.nrd() >= Fraction(19, 4)


def test_criterion_07_geometry(suite_runs):
    checks = _assert_suite(suite_runs, "geometry")
    assert int(checks["rational-form-identity"]["checked"]) == 1000
    assert int(checks["hessian-two-slots"]["checked"]) == (3 ** 4 - 1) + \
        (5 ** 4 - 1)


def test_criterion_08_delta_symbol(suite_runs):
    checks = _assert_suite(suite_runs, "delta")
    assert int(checks["nonzero-shift-cancellation"]["zeros"]) == 60
    rels = checks["zero-shift-ladder"]["rel_ladder_approx"]
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] <= 0.01


def test_criterion_09_counting(suite_runs):
    checks = _assert_suite(suite_runs, "counting")
    assert int(checks["conv-vs-brute-n2"]["checked"]) == 8
    assert int(checks["conv-vs-brute-n3"]["checked"]) == 16
    assert int(checks["traceless-bridge"]["checked"]) == 24


def test_criterion_10_determinism(suite_runs):
    for suite in SUITES:
        cold, four, warm = suite_runs[suite]["runs"]
        assert cold.stdout == four.stdout == warm.stdout, suite
        assert b"cache hit" in warm.stderr

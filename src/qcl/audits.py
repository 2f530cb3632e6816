"""Batch verification suites behind the command-line `audit` subcommand.

Each suite reruns one block of the library's exact-identity checks at full
scale and returns a deterministic summary (pass/fail per check plus integer
statistics).  Wall-clock timings go to standard error only, so the summary
bytes are a pure function of the request and seed.
"""

import itertools
import random
import sys
import time
import traceback
from fractions import Fraction

from . import DEFAULT_SEED
from .errors import PreconditionError, VerificationError


def _run_checks(suite, checks):
    """Run named checks; any exception from a check is a failed check.

    A failed check records ``"<ExceptionType>: <message>"`` in its entry
    and its traceback on standard error, so a crash still yields a verdict.
    """
    out = {"suite": suite, "passed": True, "checks": []}
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            detail = fn() or {}
            entry = {"name": name, "passed": True}
            entry.update(detail)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            entry = {"name": name, "passed": False,
                     "error": f"{type(exc).__name__}: {exc}"}
            out["passed"] = False
        dt = time.perf_counter() - t0
        status = "ok" if entry["passed"] else "FAIL"
        print(f"[{suite}] {name}: {status} ({dt:.2f}s)", file=sys.stderr)
        out["checks"].append(entry)
    return out


# ---------------------------------------------------------------------------


def suite_gauss_laws(seed=DEFAULT_SEED):
    """Structural Gauss-sum laws for p in (3, 5, 7).

    For every valuation triple in [0, 3]^3 the check draws 20 unit triples
    plus the xi = 0 case. Each prime's draws come from
    ``random.Random(f"{seed}:{p}")``: a str seed is hashed with SHA-512, so
    the stream does not depend on ``PYTHONHASHSEED`` and is stable across
    processes and CPython versions.
    """
    from .padic import GaussSumParams, gauss_sum_law_report

    def make(p):
        def run():
            rng = random.Random(f"{seed}:{p}")
            checked = 0
            for va, vt, vxi in itertools.product(range(4), repeat=3):
                for _ in range(20):
                    units = []
                    while len(units) < 3:
                        u = rng.randrange(1, p ** 3)
                        if u % p:
                            units.append(u)
                    gauss_sum_law_report(
                        GaussSumParams(p, va, vt, vxi, *units))
                    checked += 1
                gauss_sum_law_report(
                    GaussSumParams(p, va, vt, vxi, xi_zero=True))
                checked += 1
            return {"checked": checked}
        return run

    return _run_checks("gauss-laws",
                       [(f"laws-p{p}", make(p)) for p in (3, 5, 7)])


def suite_prime_case(seed=DEFAULT_SEED):
    from .expsums import prime_case_report, s2_brute, s2_closed

    def identity(q, n):
        def run():
            rep = prime_case_report(q, n, num_gamma=500, seed=seed)
            return {"checked": rep["checked"],
                    "cases": len(rep["case_histogram"])}
        return run

    def quad_count_formula():
        checked = 0
        for q in (3, 5):
            for n in (1, 2):
                if s2_brute(q, n) != s2_closed(q, n):
                    raise VerificationError(f"closed count fails q={q} n={n}")
                checked += 1
        return {"checked": checked}

    return _run_checks("prime-case", [
        ("identity-q3-n1", identity(3, 1)),
        ("identity-q3-n2", identity(3, 2)),
        ("closed-count-q35", quad_count_formula),
    ])


def suite_local_integrals(seed=DEFAULT_SEED):
    from .expsums import local_integral_audit

    def make(p, n):
        def run():
            rep = local_integral_audit(p, n, vds=(1, 2), max_gammas=200,
                                       seed=seed)
            return {"checked": rep["checked"], "nonzero": rep["nonzero"]}
        return run

    return _run_checks("local-integrals",
                       [(f"audit-p{p}-n{n}", make(p, n))
                        for p in (3, 5) for n in (1, 2)])


def suite_densities(seed=DEFAULT_SEED):
    from .densities import (density_tail_bracket, nonsplit_density_two,
                            outside_tail_bracket, split_density,
                            split_density_exhaustive)

    def conv_vs_exhaustive():
        cases = [(3, 1, 1), (3, 1, 2), (5, 1, 1), (3, 2, 1)]
        for p, m, n in cases:
            if split_density(p, m, n) != split_density_exhaustive(p, m, n):
                raise VerificationError(f"engines differ at {(p, m, n)}")
        return {"checked": len(cases)}

    def split_bracket():
        bound = density_tail_bracket(3, 5)
        ds = [split_density(3, m, 5) for m in (1, 2)]
        for d in ds:
            if outside_tail_bracket(d, 3, 5):
                raise VerificationError(f"density {d} outside bracket")
        return {"densities": ds, "bound_approx": bound}

    def nonsplit_ladder():
        ds = [nonsplit_density_two(m, 5) for m in (1, 2, 3)]
        if not all(d > 0 for d in ds):
            raise VerificationError("nonsplit density not positive")
        if not abs(ds[2] - ds[1]) < abs(ds[1] - ds[0]):
            raise VerificationError("nonsplit densities not stabilizing")
        return {"densities": ds}

    return _run_checks("densities", [
        ("split-conv-vs-exhaustive", conv_vs_exhaustive),
        ("split-bracket-p3-n5", split_bracket),
        ("nonsplit-two-n5", nonsplit_ladder),
    ])


def suite_lattices(seed=DEFAULT_SEED):
    from .lattices import (instance_corpus, lattice_basis,
                           lattice_point_count, minkowski_bracket,
                           eta_congruence_checks, successive_minima)

    corpus = instance_corpus(100, seed)
    lats = [lattice_basis(i["H"], i["K"], i["m"], i["eta"], i["m0"])
            for i in corpus]

    def containment():
        # membership congruences are re-audited inside lattice_basis; here
        # assert the two-sided sandwich on the instances where it applies
        from .linalg import reduce_mod_hnf
        inner = 0
        for inst, lat in zip(corpus, lats):
            if inst["m"] % inst["H"] == 0:
                for j in range(4):
                    vec = [inst["m"] if t == j else 0 for t in range(4)]
                    if any(reduce_mod_hnf(vec, lat.hnf)):
                        raise VerificationError("scaled order escapes lattice")
                inner += 1
        return {"instances": len(corpus), "inner_checked": inner}

    def minima_and_bracket():
        h1 = 0
        for inst, lat in zip(corpus, lats):
            mins = successive_minima(lat)
            prod, lo, hi = minkowski_bracket(lat, mins)
            if not lo <= prod <= hi:
                raise VerificationError(f"bracket fails: {inst}")
            if inst["H"] == 1:
                if mins[1] ** 2 < Fraction(inst["K"], 12):
                    raise VerificationError(f"second minimum fails: {inst}")
                h1 += 1
        return {"instances": len(corpus), "h1_instances": h1}

    def point_counts():
        worst = max(lattice_point_count(lat, 4 * inst["K"])["ratio"]
                    for inst, lat in zip(corpus, lats))
        return {"instances": len(corpus), "worst_ratio_approx": worst}

    def eta_checks():
        for inst in corpus:
            rep = eta_congruence_checks(inst["eta"], inst["K"], seed=seed)
            if rep["theta_count"] != inst["K"] ** 2:
                raise VerificationError(f"theta count fails: {inst}")
        return {"instances": len(corpus)}

    return _run_checks("lattices", [
        ("containment", containment),
        ("minima-and-bracket", minima_and_bracket),
        ("point-count-bound", point_counts),
        ("theta-and-short-vectors", eta_checks),
    ])


def suite_geometry(seed=DEFAULT_SEED):
    import numpy as np

    from .geometry import (field_matrices, geometry_audit, hessian_matrix,
                           hessian_rank, traceless_pair_count)

    def audit(q, rational):
        def run():
            rep = geometry_audit(q, pair_samples=300,
                                 rational_samples=rational, seed=seed)
            return {"traceless_with_unit": rep["traceless_with_unit"]}
        return run

    def exhaustive_pairwise():
        return {"pairs": sum(traceless_pair_count(q) for q in (3, 5))}

    def hessian_blocks():
        checked = 0
        for q in (3, 5):
            w = field_matrices(q)[1:]
            hessian_rank(w, 2, q=q)
            checked += len(w)
        return {"checked": checked}

    def rational_form_identity():
        rng = random.Random(seed)
        ws, ys = [], []
        while len(ws) < 1000:
            w = tuple(rng.randrange(-9, 10) for _ in range(4))
            if not any(w):
                continue
            ws.append(w)
            ys.append(tuple(rng.randrange(-4, 5) for _ in range(4)))
        w, y = np.array(ws), np.array(ys)
        quad = np.einsum("ni,nij,nj->n", y, hessian_matrix(w), y)
        ym, wm = y.reshape(-1, 2, 2), w.reshape(-1, 2, 2)
        form = np.einsum("nij,njk,nki->n", ym, ym, wm)
        bad = np.flatnonzero(quad != 2 * form)
        if len(bad):
            raise VerificationError(f"form identity fails at {ws[bad[0]]}")
        return {"checked": len(ws)}

    return _run_checks("geometry", [
        ("audit-f3", audit(3, 1000)),
        ("audit-f5", audit(5, 200)),
        ("exhaustive-pairwise", exhaustive_pairwise),
        ("hessian-two-slots", hessian_blocks),
        ("rational-form-identity", rational_form_identity),
    ])


def suite_delta(seed=DEFAULT_SEED):
    from .algebra import HurwitzQuat
    from .delta import delta_sum, dual_lattice_audit, poisson_check

    def nonzero_shifts():
        rng = random.Random(seed)
        zeros = 0
        for Q in (8, 16, 32):
            for _ in range(20):
                while True:
                    par = rng.randrange(2)
                    c = [2 * rng.randrange(-Q // 2, Q // 2 + 1) + par
                         for _ in range(4)]
                    alpha = HurwitzQuat(*c)
                    if not alpha.is_zero():
                        break
                rep = delta_sum(alpha, Q)
                if rep["difference"] != 0:
                    raise VerificationError(f"nonzero residual at {alpha}")
                zeros += 1
        return {"zeros": zeros}

    def zero_shift_ladder():
        rels = []
        gaps = []
        limit = None
        for Q in (8, 16, 32):
            rep = delta_sum(HurwitzQuat(0, 0, 0, 0), Q)
            bt = rep["b_term"]
            rels.append(abs(bt - float(rep["normalized"])) / abs(bt))
            if limit is None:
                from .delta import f2phi_at_zero
                limit = f2phi_at_zero() / 2
            gaps.append(abs(bt - limit))
        if not (rels[0] > rels[1] > rels[2]):
            raise VerificationError(f"ratio ladder not improving: {rels}")
        if rels[2] > 0.01:
            raise VerificationError(f"final ratio too large: {rels[2]}")
        # main-term gap shrinks faster than the square of the height step
        if not (gaps[1] < gaps[0] / 4 and gaps[2] < gaps[1]):
            raise VerificationError(f"main-term gap decays too slowly: {gaps}")
        return {"rel_ladder_approx": rels, "gap_ladder_approx": gaps}

    def poisson():
        dual_lattice_audit()
        for sc in (Fraction(1, 8), Fraction(1, 2), 1, Fraction(3, 2), 8):
            _, _, rel = poisson_check(sc)
            if rel > 1e-10:
                raise VerificationError(f"poisson fails at scale {sc}")
        return {"scales": 5}

    return _run_checks("delta", [
        ("nonzero-shift-cancellation", nonzero_shifts),
        ("zero-shift-ladder", zero_shift_ladder),
        ("poisson-harness", poisson),
    ])


def suite_counting(seed=DEFAULT_SEED):
    from .counting import brute_count, conv_count, traceless_count

    def engines(n):
        def run():
            checked = 0
            for ups in itertools.product((1, -1), repeat=n):
                for X in (1, 2):
                    if brute_count(n, ups, X) != conv_count(n, ups, X):
                        raise VerificationError(
                            f"engines differ at n={n} ups={ups} X={X}")
                    checked += 1
            return {"checked": checked}
        return run

    def traceless_bridge():
        checked = 0
        for n in (2, 3):
            for ups in itertools.product((1, -1), repeat=n):
                for X in (1, 2):
                    count, quadric = traceless_count(n, ups, X)
                    if count != quadric:
                        raise VerificationError(
                            f"bridge fails at n={n} ups={ups} X={X}")
                    checked += 1
        return {"checked": checked}

    return _run_checks("counting", [
        ("conv-vs-brute-n2", engines(2)),
        ("conv-vs-brute-n3", engines(3)),
        ("traceless-bridge", traceless_bridge),
    ])


SUITES = {
    "gauss-laws": suite_gauss_laws,
    "prime-case": suite_prime_case,
    "local-integrals": suite_local_integrals,
    "densities": suite_densities,
    "lattices": suite_lattices,
    "geometry": suite_geometry,
    "delta": suite_delta,
    "counting": suite_counting,
}


def run_suite(name, seed=DEFAULT_SEED):
    if name not in SUITES:
        raise PreconditionError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)

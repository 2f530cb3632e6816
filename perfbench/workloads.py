"""Seeded request sets for each workload, with a check per request.

A request is one `qcl` command line. Its check receives the parsed JSON
result and raises `Mismatch` when the output contradicts a value computed
apart from qcl (see oracle.py) or a property the method must have. A
request may carry `known_fault`: the program is known to answer it wrongly,
so a mismatch there (or a budget refusal, exit 3) counts as a failed
operation, not as an incorrect run; run.py decides which failures qualify.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle


class Mismatch(Exception):
    """An output that contradicts its reference."""


def expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


@dataclass
class Request:
    args: list
    check: Callable
    known_fault: Optional[str] = None

    @property
    def label(self):
        return " ".join(self.args)


def close(a, b):
    return abs(a - b) <= 1e-14 + 1e-9 * abs(b)


# ---------------------------------------------------------------------------
# expsum


def expsum_request(p, delta, gammas):
    args = ["expsum", "--p", str(p), "--delta", ",".join(map(str, delta))]
    for g in gammas:
        args += ["--gamma", ",".join(map(str, g))]
    sup = oracle.supported(delta, gammas, p)
    ref = []  # filled on first check, reused by later rounds

    def check(res):
        expect(res["supported"] is sup, f"supported={res['supported']}")
        zero = oracle.is_exact_zero(res["value"])
        expect(res["is_zero"] is zero, "is_zero disagrees with value")
        if not sup:
            expect(zero, "unsupported gamma with nonzero value")
            return
        if not ref:
            ref.append(oracle.i0_complex(delta, gammas, p))
        got = oracle.cyclo_complex(res["value"])
        expect(close(got, ref[0]), f"value {got} != reference {ref[0]}")
        expect(abs(got) <= 1 + 1e-12, "|I0| exceeds 1")

    return Request(args, check)


def supported_gammas(rng, p, delta, n):
    """A random gamma divisible by p^v (delta = p^v eta) and, for n = 2, a
    unit multiple of it, so the witness search always finds one class."""
    a, b, c, d = delta
    q = p ** oracle.pval(a * d - b * c, p)
    step = p ** min(oracle.pval(t, p) if t else 64 for t in delta)
    g1 = tuple(rng.randrange(q) * step % q for _ in range(4))
    units = [u for u in range(1, q) if u % p]
    out = [g1]
    if n == 2:
        u = rng.choice(units)
        out.append(tuple(u * t % q for t in g1))
    return out


# The audit's test moduli (expsums._audit_deltas) at p = 5, plus one at p = 3.
WITNESS_CASES = [
    (5, (25, 0, 0, 1), 1), (5, (25, 0, 0, 1), 2),
    (5, (5, 1, 0, 5), 1), (5, (5, 1, 0, 5), 2),
    (5, (5, 0, 0, 5), 2), (5, (1, 1, -4, 1), 2), (3, (9, 0, 0, 1), 2),
]


def unsupported_request(rng):
    """delta = 5 * 1, so gamma must be divisible by 5; one entry is not."""
    g = [5 * rng.randrange(5) for _ in range(4)]
    g[rng.randrange(4)] += rng.randrange(1, 5)
    return expsum_request(5, (5, 0, 0, 5), [tuple(g)])


def witness(rng):
    reqs = [expsum_request(p, delta, supported_gammas(rng, p, delta, n))
            for p, delta, n in WITNESS_CASES]
    reqs.append(unsupported_request(rng))
    return reqs


# ---------------------------------------------------------------------------
# delta-check


def zero_shift_request(Q):
    ref = []

    def check(res):
        if not ref:
            ref.append(oracle.zero_shift_difference(Q))
        diff = oracle.frac(res["difference"])
        expect(diff == ref[0], f"difference {diff} != {ref[0]}")
        expect(oracle.frac(res["normalized"]) == diff / Q ** 4,
               "normalized != difference / Q^4")
        bt = res["b_term_approx"]
        gap = abs(bt - float(diff / Q ** 4)) / abs(bt)
        expect(abs(gap - res["rel_gap_approx"]) <= 1e-12,
               "rel_gap_approx inconsistent")
        # the normalized count converges to the main term as Q grows
        expect(gap < 16.0 / Q ** 2, f"main-term gap {gap} at Q={Q}")

    return Request(["delta-check", "--q", str(Q), "--alpha", "0,0,0,0"],
                   check)


def shift_request(rng, Q):
    while True:
        alpha = [rng.randrange(-Q // 2, Q // 2 + 1) for _ in range(4)]
        if any(alpha):
            break

    def check(res):
        expect(res["cancelled"] is True, "nonzero shift did not cancel")
        expect(oracle.frac(res["difference"]) == 0, "nonzero difference")
        t1, t2 = res["terms"]
        expect(t1 == t2, f"term counts differ: {t1} vs {t2}")

    return Request(["delta-check", "--q", str(Q), "--alpha",
                    ",".join(map(str, alpha))], check)


def delta(rng):
    reqs = [zero_shift_request(20), zero_shift_request(32)]
    reqs += [shift_request(rng, Q) for Q in (8, 8, 16, 16, 32, 32)]
    return reqs


# ---------------------------------------------------------------------------
# cli-mix


def checked_counts(expected):
    """Audit verdict check: passed, and each check's counts as designed."""
    def check(res):
        expect(res["passed"] is True, "audit failed")
        got = {c["name"]: c for c in res["checks"]}
        expect(sorted(got) == sorted(expected), f"checks {sorted(got)}")
        for name, fields in expected.items():
            expect(got[name]["passed"] is True, f"{name} failed")
            for k, v in fields.items():
                expect(got[name].get(k) == str(v),
                       f"{name}.{k}={got[name].get(k)} != {v}")
    return check


def _pairs_design(q):
    """Non-proportional pairs of nonzero traceless matrices over F_q."""
    n = q ** 3 - 1
    lines = n // (q - 1)
    return math.comb(n, 2) - lines * math.comb(q - 1, 2)


AUDITS = {
    # 64 valuation triples x (20 unit draws + xi = 0)
    "gauss-laws": {f"laws-p{p}": {"checked": 64 * 21} for p in (3, 5, 7)},
    "prime-case": {"identity-q3-n1": {"checked": 500},
                   "identity-q3-n2": {"checked": 500},
                   "closed-count-q35": {"checked": 4}},
    "densities": {"split-conv-vs-exhaustive": {"checked": 4},
                  "split-bracket-p3-n5": {}, "nonsplit-two-n5": {}},
    "lattices": {"containment": {"instances": 100},
                 "minima-and-bracket": {"instances": 100},
                 "point-count-bound": {"instances": 100},
                 "theta-and-short-vectors": {"instances": 100}},
    # every nonzero traceless matrix over F_q has a unit in its kernel
    "geometry": {"audit-f3": {"traceless_with_unit": 3 ** 3 - 1},
                 "audit-f5": {"traceless_with_unit": 5 ** 3 - 1},
                 "exhaustive-pairwise": {"pairs": _pairs_design(3)
                                         + _pairs_design(5)},
                 "hessian-two-slots": {"checked": (3 ** 4 - 1)
                                       + (5 ** 4 - 1)},
                 "rational-form-identity": {"checked": 1000}},
    # sign patterns x heights
    "counting": {"conv-vs-brute-n2": {"checked": 4 * 2},
                 "conv-vs-brute-n3": {"checked": 8 * 2},
                 "traceless-bridge": {"checked": (4 + 8) * 2}},
}


def audit_request(suite):
    """At the program's default seed: `qcl --seed 2 audit lattices` fails
    its Minkowski bracket, so the suites' draws are not the benchmark's."""
    return Request(["audit", suite], checked_counts(AUDITS[suite]))


# The int64 sums in densities.group_convolve wrap for p = 3, m = 1 at n = 24.
SPLIT_DENSITY_SLOTS = (5, 9, 10, 11, 12, 16, 24)
DENSITY_FAULT = "int64 overflow in densities.group_convolve"


def density_request(n):
    ref = []

    def check(res):
        if not ref:
            ref.append(oracle.split_density(3, n))
        got = oracle.frac(res["density"])
        expect(got == ref[0], f"density {float(got):.6g} != "
               f"{float(ref[0]):.17g}")

    return Request(["density", "--place", "split", "--p", "3", "--m", "1",
                    "--n", str(n)], check,
                   DENSITY_FAULT if n == 24 else None)


def count_request(rng, n):
    signs = [rng.choice((1, -1)) for _ in range(n)]
    signs[0] = 1
    ups = "".join("+" if s > 0 else "-" for s in signs)

    def check(res):
        expect(res["equal"] is True, "engines disagree")
        expect(res["conv_count"] == res["brute_count"], "engine counts")
        ref = oracle.count_height_one(signs)
        expect(int(res["conv_count"]) == ref,
               f"count {res['conv_count']} != enumeration {ref}")

    return Request(["count", "--n", str(n), "--upsilon", ups, "--x", "1",
                    "--engine", "both"], check)


def gauss_request(rng):
    p = rng.choice((3, 5, 7))
    va, vt, vxi = (rng.randrange(4) for _ in range(3))
    units = [rng.choice([u for u in range(1, p ** 3) if u % p])
             for _ in range(3)]

    def check(res):
        laws = res["laws"]
        expect(laws and all(v is True for v in laws.values()),
               f"laws {laws}")
        ref = oracle.gauss_complex(p, va, vt, vxi, *units, False)
        got = oracle.cyclo_complex(res["value"])
        expect(close(got, ref), f"value {got} != {ref}")

    return Request(["gauss", "--p", str(p), "--va", str(va), "--vt",
                    str(vt), "--xi", str(vxi), "--ua", str(units[0]),
                    "--ut", str(units[1]), "--uxi", str(units[2])], check)


def _odd_prime_factors(n):
    out, p = [], 3
    while n % 2 == 0:
        n //= 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 2
    return out + ([n] if n > 1 else [])


def _primitive(c):
    """Content 1 in the Hurwitz order, for doubled coordinates c."""
    g = math.gcd(*c)
    while g % 2 == 0:
        g //= 2
    if g != 1:
        return False
    # all even: the halved coordinates are an order element unless their
    # parities differ
    return any(t % 2 for t in c) or len({t // 2 % 2 for t in c}) == 2


def lattice_request(rng):
    """A random primitive eta with an odd prime K and K | m | nrd(eta)."""
    while True:
        x = [rng.randrange(-6, 7) for _ in range(4)]
        c = (2 * x[0] + x[3], 2 * x[1] + x[3], 2 * x[2] + x[3], x[3])
        if not any(c) or not _primitive(c):
            continue
        nrd = sum(t * t for t in c) // 4
        odd = [p for p in _odd_prime_factors(nrd) if p <= 60]
        if nrd <= 10 ** 4 and odd:
            break
    K = rng.choice(odd)
    m = rng.choice([d for d in range(K, 61, K) if nrd % d == 0])

    def check(res):
        hnf = [[int(v) for v in row] for row in res["hnf"]]
        index = int(res["index"])
        expect(index == math.prod(hnf[i][i] for i in range(4)),
               "index != product of HNF diagonal")
        mins = [oracle.frac(v) for v in res["minima"]]
        expect(mins == sorted(mins) and mins[0] > 0, "minima not ordered")
        mk = res["minkowski"]
        prod, lo, hi = (oracle.frac(mk[k]) for k in
                        ("product", "lower", "upper"))
        expect(prod == math.prod(mins), "product != product of minima")
        expect((lo, hi) == (Fraction(index, 24), Fraction(index)),
               "Minkowski bracket ends")
        expect(lo <= prod <= hi, "Minkowski bracket fails")
        expect(mins[1] ** 2 >= Fraction(K, 12), "second minimum bound")

    return Request(["lattice", "--k", str(K), "--m", str(m), "--eta",
                    ",".join(map(str, x)), "--minima"], check)


def repnum_request(rng):
    top = rng.randrange(40, 81)

    def check(res):
        expect(res["all_equal"] is True, "enumeration != formula")
        rows = res["values"]
        expect(len(rows) == top, "row count")
        for r in rows:
            ref = oracle.rep_formula(int(r["m"]))
            expect(int(r["enumerated"]) == ref == int(r["formula"]),
                   f"rep number at {r['m']}")

    return Request(["repnum", "--max", str(top)], check)


def singular_request(rng):
    n = rng.choice((4, 5))

    def check(res):
        per = {k: oracle.frac(v) for k, v in res["per_prime"].items()}
        expect(sorted(per) == ["2", "3", "5"], f"primes {sorted(per)}")
        for p in (3, 5):
            ref = oracle.split_density(p, n)
            expect(per[str(p)] == ref, f"density at {p}")
        expect(per["2"] > 0, "nonsplit factor not positive")
        expect(oracle.frac(res["value"]) == math.prod(per.values()),
               "value != product of local factors")

    return Request(["singular", "--n", str(n), "--primes", "3,5"], check)


def cli_mix(rng):
    reqs = [audit_request(s) for s in AUDITS]
    reqs += [density_request(n) for n in SPLIT_DENSITY_SLOTS]
    reqs += [count_request(rng, 2), count_request(rng, 3),
             gauss_request(rng), gauss_request(rng), lattice_request(rng),
             repnum_request(rng), singular_request(rng),
             expsum_request(5, (25, 0, 0, 1),
                            supported_gammas(rng, 5, (25, 0, 0, 1), 1)),
             unsupported_request(rng), shift_request(rng, 16)]
    return reqs


def build(name, seed):
    rng = random.Random(f"perfbench:{name}:{seed}")
    if name == "witness":
        return witness(rng)
    if name == "delta":
        return delta(rng)
    return cli_mix(rng)

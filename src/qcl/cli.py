"""Command-line surface with canonical JSON output and a persistent cache.

Every invocation is reduced to a request envelope (subcommand, canonical
parameter map, seed, budget).  The envelope's canonical serialization is
hashed to a 32-hex-digit request hash, printed with the result.  A cache
entry is named `<request hash>-<build hash>.json`, where the build hash
covers the package version and a digest of the package's source files, so
a cache filled by other code misses, and writing an entry deletes the
request's entries from other builds.  Results are stored as the exact
output bytes, so repeated invocations are byte-identical.  Output is a
single JSON object with schema tag "v1": exact integers are decimal
strings, exact rationals are {"num", "den"} pairs, and floating-point
values appear only in fields named *_approx or *_stderr.  Timings and
progress go to standard error.  Exit codes: 0 success, 2 precondition
violation, 3 budget exhaustion, 4 verification failure.
"""

import argparse
import glob
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import DEFAULT_SEED, __version__
from .errors import (BudgetError, PreconditionError, QclError,
                     VerificationError)

SCHEMA = "v1"
_EXIT_CODES = [(PreconditionError, 2), (BudgetError, 3),
               (VerificationError, 4), (QclError, 2)]

_FLOAT_SUFFIXES = ("_approx", "_stderr")


def _jsonable(value, key=""):
    """Normalize a result tree to the v1 schema conventions."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, float):
        if not key.endswith(_FLOAT_SUFFIXES):
            raise VerificationError(
                f"float leaked into exact field {key!r}")
        return value
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v, str(k)) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, key) for v in value]
    if hasattr(value, "c"):  # integral quaternion
        return [str(ci) for ci in value.c]
    raise VerificationError(f"unserializable value of type {type(value)}")


def _canonical_request(subcommand, params, seed, budget):
    clean = {k: v for k, v in params.items() if v is not None}
    env = {"schema": SCHEMA, "subcommand": subcommand,
           "params": _jsonable(clean), "seed": seed, "budget": budget}
    return json.dumps(env, sort_keys=True, separators=(",", ":"))


def _load_config(path):
    cfg = {}
    if path is None:
        path = os.path.expanduser("~/.config/qcl.cfg")
        if not os.path.exists(path):
            return cfg
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    return cfg


def _cache_dir(cfg):
    env = os.environ.get("QCL_CACHE_DIR")
    if env:
        return env
    if "cache_dir" in cfg:
        return cfg["cache_dir"]
    return os.path.join(os.path.expanduser("~"), ".cache", "qcl")


def _code_digest():
    """SHA-256 over the names and bytes of the package's .py files."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0"
                         + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _cache_file(cfg, key):
    """Entry path `<request hash>-<build hash>.json`: the build hash covers
    the package version and the source digest."""
    build = f"{__version__}\0{_code_digest()}"
    name = f"{key}-{hashlib.sha256(build.encode()).hexdigest()[:32]}.json"
    return os.path.join(_cache_dir(cfg), name)


def _evict_other_builds(cache_file, key):
    """Delete the request's entries written by other code."""
    folder = os.path.dirname(cache_file)
    for stale in glob.glob(os.path.join(glob.escape(folder), f"{key}-*.json")):
        if stale != cache_file:
            try:
                os.remove(stale)
            except FileNotFoundError:
                pass


def _flatten(tree, prefix=""):
    rows = []
    if isinstance(tree, dict):
        for k in sorted(tree):
            rows.extend(_flatten(tree[k], f"{prefix}.{k}" if prefix else k))
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            rows.extend(_flatten(v, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, tree))
    return rows


def _emit(opts, subcommand, params, compute):
    """Print the request's result, from the cache or from `compute()`, and
    exit with its code. `opts` holds the global options (see `main`)."""
    request = _canonical_request(subcommand, params, opts["seed"],
                                 opts["budget"])
    key = hashlib.sha256(request.encode()).hexdigest()[:32]
    cache_file = (None if opts["no_cache"]
                  else _cache_file(opts["config"], key))
    payload_bytes = None
    if cache_file and os.path.exists(cache_file):
        with open(cache_file, "rb") as fh:
            payload_bytes = fh.read()
        print(f"cache hit {key}", file=sys.stderr)
    if payload_bytes is None:
        try:
            result = compute()
        except QclError as exc:
            for klass, code in _EXIT_CODES:
                if isinstance(exc, klass):
                    print(f"error: {exc}", file=sys.stderr)
                    sys.exit(code)
        payload = {"schema": SCHEMA, "subcommand": subcommand,
                   "request_hash": key, "result": _jsonable(result)}
        payload_bytes = (json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n").encode()
        # A failed verdict is recomputed on every run, never replayed.
        if cache_file and not _failed_audit(subcommand, payload):
            tmp = cache_file + f".tmp{os.getpid()}"
            try:  # the cache only saves work: a failed write keeps the result
                os.makedirs(os.path.dirname(cache_file), exist_ok=True)
                with open(tmp, "wb") as fh:
                    fh.write(payload_bytes)
                os.replace(tmp, cache_file)
            except OSError as exc:
                print(f"cache write failed: {exc}", file=sys.stderr)
                if os.path.exists(tmp):
                    os.remove(tmp)
            else:
                _evict_other_builds(cache_file, key)
    sys.stdout.buffer.write(payload_bytes)
    sys.stdout.buffer.flush()
    obj = json.loads(payload_bytes)
    if opts["csv"]:
        import csv
        with open(opts["csv"], "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("field", "value"))
            out.writerows((k, f"{v}") for k, v in _flatten(obj["result"]))
    sys.exit(4 if _failed_audit(subcommand, obj) else 0)


def _failed_audit(subcommand, payload):
    return subcommand == "audit" and not payload["result"]["passed"]


def _parse_ints(entries):
    """The ints of the entries of a comma-separated option value."""
    try:
        return [int(v) for v in entries]
    except ValueError:
        raise PreconditionError("need comma-separated integers") from None


def _parse_coords(text):
    parts = _parse_ints(text.split(","))
    if len(parts) != 4:
        raise PreconditionError("need four comma-separated integers")
    return parts


def _check_prime(p):
    from .padic import is_prime
    if not is_prime(p):
        raise PreconditionError(f"{p} is not a prime")


def _parse_signs(text):
    if not text or any(ch not in "+-" for ch in text):
        raise PreconditionError("sign pattern must be a string of + and -")
    return tuple(1 if ch == "+" else -1 for ch in text)


def _opt(*flags, **kwargs):
    """One argument of a parser: `add_argument`'s flags and keywords."""
    return flags, kwargs


def _existing_path(path):
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


# Options given before the subcommand.
_GROUP_OPTIONS = (
    _opt("--no-cache", action="store_true", help="Bypass the result cache."),
    _opt("--csv", dest="csv_path", metavar="PATH",
         help="Also write the flattened result as CSV."),
    _opt("--threads", default=1, type=int,
         help="Reserved: accepted, validated, ignored; results are "
              "thread-count invariant."),
    _opt("--seed", default=DEFAULT_SEED, type=int),
    _opt("--budget", type=int,
         help="Recorded in the request, so it changes the request hash; no "
              "engine reads it."),
    _opt("--config", dest="config_path", type=_existing_path, metavar="PATH",
         help="Key=value config file."),
)

_COMMANDS = {}  # name -> (function(opts, **values), options)


def _command(name, *options):
    def register(fn):
        _COMMANDS[name] = (fn, options)
        return fn
    return register


def _add_options(parser, options):
    for flags, kwargs in options:
        if "default" in kwargs:
            kwargs = dict(kwargs, help=" ".join(
                filter(None, [kwargs.get("help"), "(default: %(default)s)"])))
        parser.add_argument(*flags, **kwargs)
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")


def _parser(prog):
    """The global options, then one subparser per command. Help is `--help`
    alone (no `-h`), no option may be abbreviated, and a usage error exits
    2."""
    parser = argparse.ArgumentParser(
        prog=prog, add_help=False, allow_abbrev=False,
        description="Exact-arithmetic toolkit for quaternionic counting "
                    "problems.")
    _add_options(parser, _GROUP_OPTIONS)
    subs = parser.add_subparsers(dest="command", metavar="COMMAND",
                                 title="commands", required=True)
    for name, (fn, options) in _COMMANDS.items():
        _add_options(subs.add_parser(
            name, help=fn.__doc__, description=fn.__doc__, add_help=False,
            allow_abbrev=False), options)
    return parser


def _value_flags(options):
    return {flag for flags, kwargs in options
            if kwargs.get("action") != "store_true"
            for flag in flags if flag.startswith("-")}


def _bind_values(argv):
    """Join each option that takes a value to the token after it, as in
    `--alpha=-4,3,-4,2`, so the next token is the value whatever it looks
    like. Alone, argparse would read `-4,3,-4,2` or the sign pattern `-+`
    as an unknown option."""
    takes, command = _value_flags(_GROUP_OPTIONS), None
    out, tokens = [], iter(argv)
    for tok in tokens:
        if tok == "--":
            rest = list(tokens)
            out.extend([tok, *rest] if rest else [])  # a trailing -- is a no-op
        elif tok in takes:
            value = next(tokens, None)
            out.append(tok if value is None else f"{tok}={value}")
        else:
            if command is None and tok in _COMMANDS:
                command = tok
                takes = _value_flags(_COMMANDS[tok][1])
            out.append(tok)
    return out


@_command("count",
          _opt("--n", required=True, type=int),
          _opt("--upsilon", help="Sign pattern, e.g. +-; defaults to all +."),
          _opt("--x", "--X", dest="height", required=True, type=int),
          _opt("--engine", choices=["conv", "brute", "both"],
               default="conv"),
          _opt("--traceless", action="store_true"))
def count(opts, n, upsilon, height, engine, traceless):
    """Count solutions of the signed sum-of-squares equation in a box."""
    ups = "+" * n if upsilon is None else upsilon
    params = {"n": n, "upsilon": ups, "X": height, "engine": engine,
              "traceless": traceless}

    def compute():
        from .counting import brute_count, conv_count, traceless_count
        if n < 1:
            raise PreconditionError("n must be at least 1")
        signs = _parse_signs(ups)
        if len(signs) != n:
            raise PreconditionError("sign pattern length must equal n")
        if traceless and engine != "conv":
            raise PreconditionError("--traceless counts with --engine conv")
        out = {"n": n, "upsilon": ups, "X": height, "traceless": traceless}
        if traceless:
            cnt, quadric = traceless_count(n, signs, height)
            out["count"] = cnt
            out["quadric_count"] = quadric
            out["equal"] = cnt == quadric
            return out
        if engine in ("conv", "both"):
            out["conv_count"] = conv_count(n, signs, height)
        if engine in ("brute", "both"):
            out["brute_count"] = brute_count(n, signs, height)
        if engine == "both":
            out["equal"] = out["conv_count"] == out["brute_count"]
        return out

    _emit(opts, "count", params, compute)


@_command("density",
          _opt("--place", choices=["split", "nonsplit"], default="split"),
          _opt("--p", required=True, type=int),
          _opt("--m", required=True, type=int, help="Level exponent."),
          _opt("--n", required=True, type=int, help="Number of slots."),
          _opt("--engine", choices=["conv", "exhaustive", "both"],
               default="conv"))
def density(opts, place, p, m, n, engine):
    """Local solution density of the sum-of-squares equation."""
    params = {"place": place, "p": p, "m": m, "n": n, "engine": engine}

    def compute():
        from .densities import (nonsplit_density_odd, nonsplit_density_two,
                                split_density, split_density_exhaustive)
        _check_prime(p)
        out = {"place": place, "p": p, "m": m, "n": n}
        if place == "nonsplit":
            out["density"] = (nonsplit_density_two(m, n) if p == 2
                              else nonsplit_density_odd(p, m, n))
            return out
        if engine in ("conv", "both"):
            out["density"] = split_density(p, m, n)
        if engine in ("exhaustive", "both"):
            out["density_exhaustive"] = split_density_exhaustive(p, m, n)
        if engine == "both":
            out["equal"] = out["density"] == out["density_exhaustive"]
        return out

    _emit(opts, "density", params, compute)


@_command("gauss",
          _opt("--p", required=True, type=int),
          _opt("--va", required=True, type=int),
          _opt("--vt", required=True, type=int),
          _opt("--xi", dest="vxi", required=True, type=int,
               help="Valuation of the linear coefficient."),
          _opt("--ua", default=1, type=int),
          _opt("--ut", default=1, type=int),
          _opt("--uxi", default=1, type=int),
          _opt("--xi-zero", action="store_true"))
def gauss(opts, p, va, vt, vxi, ua, ut, uxi, xi_zero):
    """Normalized quadratic character sum with its structural laws."""
    params = {"p": p, "va": va, "vt": vt, "vxi": vxi, "ua": ua, "ut": ut,
              "uxi": uxi, "xi_zero": xi_zero}

    def compute():
        from .padic import GaussSumParams, gauss_sum_law_report
        _check_prime(p)
        rep = gauss_sum_law_report(
            GaussSumParams(p, va, vt, vxi, ua, ut, uxi, xi_zero))
        return {"p": p, "value": _cyclo_out(rep["value"]),
                "laws": rep["laws"]}

    _emit(opts, "gauss", params, compute)


def _cyclo_out(val):
    c = val.canonical()
    if c.is_rational():
        return c.to_fraction()
    return {"p": c.p, "k": c.k, "scale": c.scale,
            "counts": {str(r): n for r, n in enumerate(c.v) if n}}


@_command("expsum",
          _opt("--p", required=True, type=int),
          _opt("--delta", required=True,
               help="Flat 2x2 matrix entries a,b,c,d."),
          _opt("--gamma", dest="gammas", action="append", required=True,
               help="Flat 2x2 matrix entries; repeat once per slot."))
def expsum(opts, p, delta, gammas):
    """Local oscillatory integral attached to a modulus and shift tuple."""
    params = {"p": p, "delta": delta, "gammas": list(gammas)}

    def compute():
        from .expsums import i0_local, witness_report
        _check_prime(p)
        d = tuple(_parse_coords(delta))
        gs = [_parse_coords(g) for g in gammas]
        val = i0_local(d, gs, p)
        rep = witness_report(d, [tuple(g) for g in gs], p)
        return {"p": p, "value": val, "is_zero": val == 0,
                "supported": rep["supported"]}

    _emit(opts, "expsum", params, compute)


@_command("lattice",
          _opt("--h", "--H", dest="hh", default=1, type=int),
          _opt("--k", "--K", dest="kk", required=True, type=int),
          _opt("--m", required=True, type=int),
          _opt("--eta", required=True,
               help="Integral-basis coordinates of the norm element."),
          _opt("--m0", default="1,0,0,0"),
          _opt("--minima", action="store_true",
               help="Also report successive minima."))
def lattice(opts, hh, kk, m, eta, m0, minima):
    """Congruence lattice basis, index, and optional successive minima."""
    params = {"H": hh, "K": kk, "m": m, "eta": eta, "m0": m0,
              "minima": minima}

    def compute():
        from .algebra import hq_from_basis_coords
        from .lattices import lattice_basis, minkowski_bracket, \
            successive_minima
        lat = lattice_basis(hh, kk, m, hq_from_basis_coords(_parse_coords(eta)),
                            hq_from_basis_coords(_parse_coords(m0)))
        out = {"hnf": [list(r) for r in lat.hnf], "index": lat.index,
               "kprime": lat.kprime, "mprime": lat.mprime}
        if minima:
            mins = successive_minima(lat)
            prod, lo, hi = minkowski_bracket(lat, mins)
            out["minima"] = list(mins)
            out["minkowski"] = {"product": prod, "lower": lo, "upper": hi}
        return out

    _emit(opts, "lattice", params, compute)


@_command("repnum",
          _opt("--m", type=int),
          _opt("--max", dest="max_m", type=int))
def repnum(opts, m, max_m):
    """Primitive representation numbers (enumerated and closed form)."""
    params = {"m": m, "max": max_m}

    def compute():
        from .lattices import rep_number, rep_numbers
        if (m is None) == (max_m is None):
            raise PreconditionError("give exactly one of --m / --max")
        if m is not None:
            a, b = rep_number(m)
            return {"m": m, "enumerated": a, "formula": b, "equal": a == b}
        rows = [{"m": mm, "enumerated": a, "formula": b}
                for mm, (a, b) in enumerate(rep_numbers(max_m), 1)]
        return {"max": max_m, "values": rows,
                "all_equal": all(r["enumerated"] == r["formula"]
                                 for r in rows)}

    _emit(opts, "repnum", params, compute)


@_command("singular",
          _opt("--n", required=True, type=int),
          _opt("--m", default=1, type=int,
               help="Level exponent for the local factors."),
          _opt("--primes", default="3,5,7"),
          _opt("--skip-two", action="store_true"),
          _opt("--arch", action="store_true",
               help="Include the Monte Carlo archimedean factor."))
def singular(opts, n, m, primes, skip_two, arch):
    """Partial singular series: product of local densities."""
    params = {"n": n, "m": m, "primes": primes, "skip_two": skip_two,
              "arch": arch}

    def compute():
        from .densities import archimedean_density, singular_series
        plist = sorted(set(_parse_ints(
            v for v in primes.split(",") if v.strip())))
        for p in plist:
            _check_prime(p)
        value, per = singular_series(n, plist, m, include_two=not skip_two)
        out = {"n": n, "m": m, "value": value,
               "per_prime": {str(p): d for p, d in sorted(per.items())}}
        if arch:
            est, err = archimedean_density(n, seed=opts["seed"])
            out["archimedean_approx"] = est
            out["archimedean_stderr"] = err
        return out

    _emit(opts, "singular", params, compute)


@_command("delta-check",
          _opt("--alpha", default="0,0,0,0",
               help="Integral-basis coordinates of the shift."),
          _opt("--q", "--Q", dest="height", required=True, type=int))
def delta_check(opts, alpha, height):
    """Two-sided delta-symbol sum: exact cancellation or main-term ratio."""
    params = {"alpha": alpha, "Q": height}

    def compute():
        from .algebra import hq_from_basis_coords
        from .delta import delta_sum
        a = hq_from_basis_coords(_parse_coords(alpha))
        rep = delta_sum(a, height)
        out = {"alpha": alpha, "Q": height, "difference": rep["difference"]}
        if a.is_zero():
            bt = rep["b_term"]
            out["b_term_approx"] = bt
            out["normalized"] = rep["normalized"]
            out["rel_gap_approx"] = abs(bt - float(rep["normalized"])) / abs(bt)
        else:
            out["terms"] = list(rep["terms"])
            out["cancelled"] = rep["difference"] == 0
        return out

    _emit(opts, "delta-check", params, compute)


@_command("audit", _opt("suite"))
def audit(opts, suite):
    """Run a named verification suite; exits 4 on any failed check."""
    params = {"suite": suite}

    def compute():
        from .audits import run_suite
        return run_suite(suite, seed=opts["seed"])

    _emit(opts, "audit", params, compute)


def main(args=None, prog_name="qcl"):
    """Run one request from `args` (default: sys.argv[1:]) and exit with its
    code."""
    parser = _parser(prog_name)
    ns = vars(parser.parse_args(
        _bind_values(sys.argv[1:] if args is None else args)))
    if ns["threads"] < 1:
        parser.error("--threads must be positive")
    budget = ns.pop("budget")
    try:
        cfg = _load_config(ns.pop("config_path"))
        if budget is None and "budget" in cfg:
            budget = int(cfg["budget"])
    except (OSError, ValueError) as exc:  # unreadable file, budget not an int
        parser.error(f"config: {exc}")
    opts = {"no_cache": ns.pop("no_cache"), "csv": ns.pop("csv_path"),
            "threads": ns.pop("threads"), "seed": ns.pop("seed"),
            "budget": budget, "config": cfg}
    fn, _ = _COMMANDS[ns.pop("command")]
    fn(opts, **ns)


if __name__ == "__main__":
    main()

"""Run one qcl request with timing wrappers around its layers.

    PERFBENCH_SPANS=spans.jsonl python3 perfbench/qcl_traced.py <qcl args>

Imports every qcl module, replaces each traced function by a wrapper in
every namespace that binds it (a module that did `from .lattices import
norm_count` holds its own reference), then calls qcl.cli.main. At exit it
appends one JSON line to $PERFBENCH_SPANS: per-function calls and self time
(time inside the function less the time in the traced functions it calls),
work counters, and the spans themselves (name, start, end, parent).
"""

import atexit
import functools
import importlib
import json
import os
import sys
import time

TRACED = {
    "expsums": ["witness_report", "w_class_sum_report", "i0_local",
                "matrix_cyclic_generator", "cyclo_abs_sq",
                "prime_case_report"],
    "delta": ["ghat", "b_term", "delta_sum", "dual_norm_histogram",
              "poisson_check"],
    "lattices": ["norm_count", "successive_minima", "lattice_point_count",
                 "eta_congruence_checks", "rep_number"],
    "densities": ["group_convolve", "split_density", "nonsplit_density_two"],
    "counting": ["dist_convolve", "brute_count", "conv_count",
                 "traceless_count"],
    "padic": ["gauss_sum_law_report", "gauss_sum"],
    "algebra": ["CycloSum.canonical", "HurwitzQuat.__mul__"],
    "geometry": ["geometry_audit", "mat_rank", "hessian_rank"],
    "linalg": ["row_hnf"],
}

MODULES = ["algebra", "linalg", "padic", "expsums", "densities", "counting",
           "lattices", "geometry", "delta", "audits", "cli"]

# Spans kept per request; calls beyond it are still counted and timed.
MAX_SPANS = 200_000

stats = {}      # name -> [calls, self seconds]
counters = {}   # name -> work count
ghat_args = set()
spans = []
stack = [[0, 0.0]]  # [span id, seconds spent in traced children]
next_id = [1]


def _ghat_arg(args, kwargs):
    ghat_args.add(round(float(args[0]), 12))


def _support(args, kwargs):
    import numpy as np
    counters["densities.group_convolve.support"] = (
        counters.get("densities.group_convolve.support", 0)
        + int(np.count_nonzero(args[0])))


def _pairs(args, kwargs):
    a, b = args[0], args[1]
    counters["counting.dist_convolve.pairs"] = (
        counters.get("counting.dist_convolve.pairs", 0)
        + len(a.keys) * len(b.keys))


WORK = {"delta.ghat": _ghat_arg, "densities.group_convolve": _support,
        "counting.dist_convolve": _pairs}


def wrap(name, fn):
    stats[name] = [0, 0.0]
    count_work = WORK.get(name)
    st = stats[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if count_work is not None:
            count_work(args, kwargs)
        sid = next_id[0]
        next_id[0] += 1
        parent = stack[-1][0]
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            stack[-1][1] += dur
            st[0] += 1
            st[1] += dur - frame[1]
            if len(spans) < MAX_SPANS:
                spans.append((sid, parent, name, t0, t1))
    return traced


def install():
    mods = {m: importlib.import_module(f"qcl.{m}") for m in MODULES}
    for mod, names in TRACED.items():
        for attr in names:
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                setattr(cls, meth, wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(mods[mod], attr)
            traced = wrap(name, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
    return mods["cli"]


def dump(path, argv):
    counters["delta.ghat.distinct"] = len(ghat_args)
    rec = {"argv": argv, "stats": stats, "counters": counters,
           "spans_dropped": max(0, next_id[0] - 1 - len(spans)),
           "spans": spans}
    with open(path, "a") as fh:
        fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def main():
    path = os.environ["PERFBENCH_SPANS"]
    cli = install()
    atexit.register(dump, path, sys.argv[1:])
    cli.main(args=sys.argv[1:], prog_name="qcl")


if __name__ == "__main__":
    main()

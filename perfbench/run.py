"""Closed-loop benchmark of qcl verdicts.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the directory holding src/qcl).
One client process sends one request at a time; every request is a fresh
`python3 -m qcl.cli` process with PYTHONPATH=src, so nothing is installed or
built. A round is a cold pass over the workload's requests against an empty
cache directory, then a warm pass that re-issues them against the filled
cache. Rounds repeat until --seconds have passed; every round is whole.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced cold
pass and then one round through perfbench/qcl_traced.py, which times the
layers from outside the program, and prints the per-layer metrics. The
metric names and units come from BENCHMARK.json at the checkout root.

Every output is checked (see workloads.py). The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Details of the
run go to perfbench/out/.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TRACED = os.path.join(HERE, "qcl_traced.py")

RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_REPEATS = 3  # then one more after each request

# What a request of each workload imports; setup_s times importing it.
SETUP_MODULES = {
    "witness": ["qcl.cli", "qcl.expsums"],
    "delta": ["qcl.cli", "qcl.delta"],
    "cli-mix": ["qcl.cli", "qcl.audits", "qcl.counting", "qcl.delta",
                "qcl.densities", "qcl.expsums", "qcl.geometry",
                "qcl.lattices", "qcl.linalg", "qcl.padic"],
}

AUDIT_LINE = re.compile(r"^\[([\w-]+)\] ([\w-]+): (?:ok|FAIL) \(([\d.]+)s\)$",
                        re.M)


def calibrate():
    """A fixed pure-Python loop, to tell machine drift from program change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


def request_env(home, cache):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "QCL_"))}
    env.update(HOME=home, QCL_CACHE_DIR=cache, PYTHONPATH=SRC,
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    """Spawns one process at a time and reads its rusage with wait4, so
    each request's peak RSS is its own and not the running maximum over
    all children that RUSAGE_CHILDREN keeps."""

    def __init__(self, deadline):
        self.deadline = deadline

    def run(self, argv, env, out_path, err_path):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("run time limit reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=ROOT)
            timer = threading.Timer(left, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise TimeoutError(f"killed: {' '.join(argv[-6:])}")
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "r", errors="replace") as fh:
            stderr = fh.read()
        return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                "rss_mb": ru.ru_maxrss / 1024, "rc": proc.returncode,
                "stdout": stdout, "stderr": stderr}


def run_round(runner, reqs, env, work, argv0, between=None):
    """One closed-loop round: each request cold, then at once warm from the
    entry it just wrote, so cold and warm samples both spread over the
    round. `between` runs after each request (the set-up probe)."""
    cold, warm = [], []
    for i, req in enumerate(reqs):
        base = os.path.join(work, f"req{i}")
        cold.append(runner.run(argv0 + req.args, env, base + "c.out",
                               base + "c.err"))
        warm.append(runner.run(argv0 + req.args, env, base + "w.out",
                               base + "w.err"))
        if between:
            between()
    return cold, warm


def verify(req, cold, warm):
    """(None, None) if the operation is right, else (kind, reason). kind is
    "wrong" for an answer that exits 0, is served back warm byte for byte
    and fails its check; "budget" for a refusal with the budget exit code 3
    on both passes; "broken" for anything else (a crash, another exit code,
    unreadable output, warm bytes that differ, a warm cache miss)."""
    if cold["rc"] == 3 and warm["rc"] == 3:
        return "budget", f"exit 3: {cold['stderr'][-300:]}"
    if cold["rc"] != 0:
        return "broken", f"exit {cold['rc']}: {cold['stderr'][-300:]}"
    wrong = None
    try:
        payload = json.loads(cold["stdout"])
        req.check(payload["result"])
    except workloads.Mismatch as exc:
        wrong = str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return "broken", f"unreadable output: {type(exc).__name__}: {exc}"
    if warm["rc"] != 0 or warm["stdout"] != cold["stdout"]:
        return "broken", "warm bytes differ from cold bytes"
    if "cache hit" not in warm["stderr"]:
        return "broken", "warm request missed the cache"
    return ("wrong", wrong) if wrong else (None, None)


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(rounds, setup):
    """Per-request medians over the rounds, then summed (wall, CPU) or
    maxed (RSS) over the requests: a slow spell of the machine during one
    round moves only the requests it overlapped."""
    def med(key, passes):
        return [statistics.median(p[i][key] for p in passes)
                for i in range(len(passes[0]))]
    cold = [c for c, _ in rounds]
    both = [[max(a, b, key=lambda r: r["rss_mb"]) for a, b in zip(c, w)]
            for c, w in rounds]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(med("wall", cold)),
        "cpu_s": sum(med("cpu", cold)),
        "peak_rss_mb": max(med("rss_mb", both)),
        "hit_s": statistics.median(r["wall"] for _, w in rounds for r in w),
    }


def per_layer(spans_path, cold_untraced, warm, cache_bytes):
    """Sum the per-request layer stats written by qcl_traced.py."""
    out = {"cli.cache_hits": sum(r["stderr"].count("cache hit")
                                 for r in warm),
           "cli.cache_bytes": cache_bytes}
    with open(spans_path) as fh:
        for line in fh:
            rec = json.loads(line)
            for name, (calls, self_s) in rec["stats"].items():
                out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
                out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0) + self_s
            for name, v in rec["counters"].items():
                out[name] = out.get(name, 0) + v
    for r in cold_untraced:
        for suite, check, secs in AUDIT_LINE.findall(r["stderr"]):
            out[f"audits.{suite}.{check}.s"] = float(secs)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(SETUP_MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcl", "cli.py")):
        print(f"perfbench: no qcl sources at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    home = os.path.join(work, "home")
    os.makedirs(home)
    try:
        return measure(args, spec, runner, tag, work, home)
    except (TimeoutError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, runner, tag, work, home):
    calibration = [calibrate()]
    import_cmd = [sys.executable, "-c",
                  "import " + ", ".join(SETUP_MODULES[args.workload])]
    env0 = request_env(home, os.path.join(work, "unused-cache"))
    setup = []

    def setup_probe():
        r = runner.run(import_cmd, env0, os.path.join(work, "imp.out"),
                       os.path.join(work, "imp.err"))
        if r["rc"] != 0:
            raise RuntimeError(f"import failed: {r['stderr']}")
        setup.append(r["wall"])

    for _ in range(SETUP_REPEATS):
        setup_probe()
    reqs = workloads.build(args.workload, args.seed)
    qcl = [sys.executable, "-m", "qcl.cli"]

    rounds = []
    extra = {}
    if args.trace:
        spans = os.path.join(OUT, f"spans-{tag}.jsonl")
        if os.path.exists(spans):
            os.remove(spans)
        env = request_env(home, os.path.join(work, "cache-plain"))
        plain, _ = run_round(runner, reqs, env, work, qcl)
        cache = os.path.join(work, "cache-traced")
        env = request_env(home, cache)
        env["PERFBENCH_SPANS"] = spans
        cold, warm = run_round(runner, reqs, env, work,
                               [sys.executable, TRACED])
        rounds.append((cold, warm))
        values = per_layer(spans, plain, warm, tree_bytes(cache))
        plain_wall = sum(r["wall"] for r in plain)
        traced_wall = sum(r["wall"] for r in cold)
        extra = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                 "trace_overhead": traced_wall / plain_wall,
                 "spans": os.path.relpath(spans, ROOT)}
        wanted = spec["per_layer"]
    else:
        t0 = time.monotonic()
        while not rounds or time.monotonic() - t0 < args.seconds:
            env = request_env(home, os.path.join(work, f"cache{len(rounds)}"))
            rounds.append(run_round(runner, reqs, env, work, qcl,
                                    setup_probe))
        values = end_to_end(rounds, setup)
        wanted = spec["end_to_end"]
    calibration.append(calibrate())

    attempted = failed = 0
    correct = True
    for cold, warm in rounds:
        for req, c, w in zip(reqs, cold, warm):
            attempted += 1
            kind, why = verify(req, c, w)
            if kind is None:
                continue
            failed += 1
            # the known fault is excused only in the two forms it can take:
            # a wrong value today, a budget refusal once the guard lands
            if req.known_fault and kind in ("wrong", "budget"):
                print(f"perfbench: known fault ({req.known_fault}): "
                      f"{req.label}: {why}", file=sys.stderr)
            else:
                correct = False
                print(f"perfbench: WRONG: {req.label}: {why}",
                      file=sys.stderr)

    # a layer metric the workload never reaches reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calibration_s": calibration, "setup_samples_s": setup,
        "rounds": [{"cold": [{k: r[k] for k in ("wall", "cpu", "rss_mb")}
                             for r in cold],
                    "warm_wall": [r["wall"] for r in warm]}
                   for cold, warm in rounds],
        "requests": [req.label for req in reqs], **extra,
        "result": {"correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print("calibration_s " + json.dumps(calibration))
    if extra:
        print("trace " + json.dumps(extra))
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

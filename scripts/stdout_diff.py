#!/usr/bin/env python3
"""Compare the CLI's stdout bytes and exit codes between two source trees,
or check one tree against a file of recorded verdicts.

Each non-blank line of REQUESTS (lines starting with '#' are skipped) is one
request, split like a shell command line and run as

    python -m qcl.cli --no-cache <request>

once with PYTHONPATH=BASE_SRC and once with PYTHONPATH=HEAD_SRC, each run
with PYTHONHASHSEED=0 and a fresh, empty QCL_CACHE_DIR. Every request whose
stdout bytes or exit code differ is printed, in file order; the exit status
is 1 if any differ, else 0, and 2 without running anything when a tree
holds no qcl/cli.py. The runs share one worker per core (os.cpu_count()).
Run from anywhere:

    python3 scripts/stdout_diff.py ../base/src src requests.txt

With --seeds A-B every request runs once at each global `--seed` from A to
B inclusive, so all eight audit suites at seeds 0..8 are one command:

    printf 'audit %s\n' gauss-laws prime-case local-integrals densities \
        lattices geometry delta counting > suites.txt
    python3 scripts/stdout_diff.py --seeds 0-8 ../base/src src suites.txt

With --head-python PATH the HEAD_SRC runs use that interpreter instead of
the one running this script, so one tree can be compared under two:

    python3 scripts/stdout_diff.py --head-python /usr/bin/python3.12 \
        src src requests.txt

With --golden FILE one tree SRC is checked against FILE, whose lines are
`EXIT SHA256 REQUEST`: the exit code and the sha256 of the stdout bytes
recorded for each request. A line holding a request alone has no verdict
yet and counts as differing. --update rewrites FILE with SRC's verdicts in
place, keeping its comments and order, so `git diff` shows every verdict
that moved:

    python3 scripts/stdout_diff.py --golden scripts/verdicts.txt src
    python3 scripts/stdout_diff.py --golden scripts/verdicts.txt --update src
"""

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

# EXIT SHA256 REQUEST
_VERDICT = re.compile(r"(\d+) ([0-9a-f]{64}) (\S.*)")


def run(python, src, request):
    """(exit code, stdout bytes) of one cold, uncached request."""
    with tempfile.TemporaryDirectory(prefix="qcl-diff-") as cache:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   PYTHONHASHSEED="0", QCL_CACHE_DIR=cache)
        proc = subprocess.run(
            [python, "-m", "qcl.cli", "--no-cache", *request],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    return proc.returncode, proc.stdout


def run_all(jobs):
    """`run` of every (python, src, request) job, one worker per core, as
    a list in job order."""
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        return list(pool.map(lambda job: run(*job), jobs))


def seed_range(text):
    """'A-B' (or a single 'A') as the inclusive range of seeds."""
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return seeds


def read_verdicts(path):
    """The lines of a verdict file as (text, exit code, digest, is_request):
    a blank or a comment is its own text and no request, and a request with
    no verdict yet has exit code and digest None."""
    out = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                out.append((raw.rstrip("\n"), None, None, False))
                continue
            hit = _VERDICT.fullmatch(line)
            if hit:
                out.append((hit[3], int(hit[1]), hit[2], True))
            else:
                out.append((line, None, None, True))
    return out


def report(line, recorded, got):
    """Print the request line if its verdicts differ; True if they do."""
    (rc_a, out_a), (rc_b, out_b) = recorded, got
    if rc_a == rc_b and out_a == out_b:
        return False
    what = [] if out_a == out_b else ["stdout"]
    if rc_a != rc_b:
        what.append(f"exit {rc_a} -> {rc_b}")
    print(f"DIFFERS ({', '.join(what)}): {line}")
    return True


def check_golden(path, python, src, update):
    """Run every request of the verdict file under src; count those whose
    exit code or stdout digest differ from the recorded ones, and with
    `update` rewrite the file with the verdicts just seen."""
    lines = read_verdicts(path)
    todo = [k for k, line in enumerate(lines) if line[3]]
    runs = run_all([(python, src, shlex.split(lines[k][0])) for k in todo])
    differ = 0
    for k, (got_rc, out) in zip(todo, runs):
        text, rc, digest, _ = lines[k]
        got = (got_rc, hashlib.sha256(out).hexdigest())
        differ += report(text, (rc, digest), got)
        lines[k] = (text, *got, True)
    if update:
        with open(path, "w") as fh:
            for text, rc, digest, is_request in lines:
                fh.write(f"{rc} {digest} {text}\n" if is_request
                         else text + "\n")
    return len(todo), differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="+", metavar="PATH",
                    help="BASE_SRC HEAD_SRC REQUESTS; with --golden, the "
                         "one source tree SRC")
    ap.add_argument("--seeds", type=seed_range, metavar="A-B",
                    help="run every request at each --seed from A to B")
    ap.add_argument("--head-python", default=sys.executable, metavar="PATH",
                    help="interpreter for the HEAD_SRC (or SRC) runs "
                         "(default: this one)")
    ap.add_argument("--golden", metavar="FILE",
                    help="check SRC against the verdicts recorded in FILE")
    ap.add_argument("--update", action="store_true",
                    help="with --golden: record SRC's verdicts in FILE")
    args = ap.parse_args(argv)
    if args.golden is None:
        if len(args.paths) != 3 or args.update:
            ap.error("need BASE_SRC HEAD_SRC REQUESTS, without --update")
        trees = args.paths[:2]
    else:
        if len(args.paths) != 1 or args.seeds is not None:
            ap.error("--golden takes one SRC, without --seeds")
        trees = args.paths
    for src in trees:
        if not os.path.isfile(os.path.join(src, "qcl", "cli.py")):
            ap.error(f"no qcl/cli.py under {src}")
    if args.golden is not None:
        requests, differ = check_golden(args.golden, args.head_python,
                                        trees[0], args.update)
        print(f"{requests} requests, {differ} differ", file=sys.stderr)
        return 1 if differ else 0
    with open(args.paths[2]) as fh:
        lines = [ln.strip() for ln in fh]
    seeds = [[]] if args.seeds is None else [["--seed", str(s)]
                                             for s in args.seeds]
    requests = [shlex.join(seed + shlex.split(ln))
                for ln in lines if ln and not ln.startswith("#")
                for seed in seeds]
    runs = run_all([job for line in requests for job in (
        (sys.executable, trees[0], shlex.split(line)),
        (args.head_python, trees[1], shlex.split(line)))])
    differ = sum(report(line, *runs[2 * k:2 * k + 2])
                 for k, line in enumerate(requests))
    print(f"{len(requests)} requests, {differ} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

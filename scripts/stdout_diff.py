#!/usr/bin/env python3
"""Compare the CLI's stdout bytes and exit codes between two source trees.

Each non-blank line of REQUESTS (lines starting with '#' are skipped) is one
request, split like a shell command line and run as

    python -m qcl.cli --no-cache <request>

once with PYTHONPATH=BASE_SRC and once with PYTHONPATH=HEAD_SRC, each run
with PYTHONHASHSEED=0 and a fresh, empty QCL_CACHE_DIR. Every request whose
stdout bytes or exit code differ is printed; the exit status is 1 if any
differ, else 0. Run from anywhere:

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
"""

import argparse
import os
import shlex
import subprocess
import sys
import tempfile


def run(python, src, request):
    """(exit code, stdout bytes) of one cold, uncached request."""
    with tempfile.TemporaryDirectory(prefix="qcl-diff-") as cache:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   PYTHONHASHSEED="0", QCL_CACHE_DIR=cache)
        proc = subprocess.run(
            [python, "-m", "qcl.cli", "--no-cache", *request],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    return proc.returncode, proc.stdout


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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src", help="source tree holding the qcl package")
    ap.add_argument("head_src", help="source tree to compare against it")
    ap.add_argument("requests", help="file with one request per line")
    ap.add_argument("--seeds", type=seed_range, metavar="A-B",
                    help="run every request at each --seed from A to B")
    ap.add_argument("--head-python", default=sys.executable, metavar="PATH",
                    help="interpreter for the HEAD_SRC runs (default: this "
                         "one)")
    args = ap.parse_args(argv)
    with open(args.requests) as fh:
        lines = [ln.strip() for ln in fh]
    seeds = [[]] if args.seeds is None else [["--seed", str(s)]
                                             for s in args.seeds]
    requests = [shlex.join(seed + shlex.split(ln))
                for ln in lines if ln and not ln.startswith("#")
                for seed in seeds]
    differ = 0
    for line in requests:
        request = shlex.split(line)
        (rc_a, out_a), (rc_b, out_b) = (
            run(sys.executable, args.base_src, request),
            run(args.head_python, args.head_src, request))
        if rc_a != rc_b or out_a != out_b:
            differ += 1
            what = [] if out_a == out_b else ["stdout"]
            if rc_a != rc_b:
                what.append(f"exit {rc_a} -> {rc_b}")
            print(f"DIFFERS ({', '.join(what)}): {line}")
    print(f"{len(requests)} requests, {differ} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

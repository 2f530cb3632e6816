#!/usr/bin/env python3
"""Box-count growth experiment for the signed sum-of-squares equation.

Counts solutions over integral quaternions with sup-norm at most X for a
ladder of heights and prints the empirical log2 growth slopes, both for the
full equation (expected slope approaching 4n - 8 for n >= 9: the count is
c X^{4n-8} + O(X^{3n+eps})) and for the traceless restriction (expected
slope approaching 3n - 2).
Includes the nine-slot sanity point at height 1.

    python3 scripts/growth_experiment.py
"""

import sys
import time

from qcl.counting import conv_count, growth_report


def show(report):
    print(f"\nslots n={report['n']}  signs {report['upsilon']}  "
          f"traceless={report['traceless']}")
    print(f"{'X':>4} {'count':>18} {'log2 slope':>11}")
    for row in report["rows"]:
        slope = "" if row["log2_slope"] is None else f"{row['log2_slope']:.3f}"
        print(f"{row['X']:>4} {row['count']:>18} {slope:>11}")
    print(report["note"])


def main():
    t0 = time.time()
    show(growth_report(2, (1, -1), [1, 2, 4]))
    show(growth_report(3, (1, 1, -1), [1, 2]))
    show(growth_report(3, (1, 1, -1), [1, 2], traceless=True))
    show(growth_report(5, (1, 1, 1, -1, -1), [1, 2]))

    t1 = time.time()
    nine = conv_count(9, (1, 1, 1, 1, 1, -1, -1, -1, -1), 1)
    print(f"\nnine slots at height 1: {nine} solutions "
          f"({time.time() - t1:.1f}s)")
    print(f"total {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

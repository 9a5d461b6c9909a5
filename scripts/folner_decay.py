#!/usr/bin/env python3
"""Boundary-ratio decay along the default Folner schemes.

Emits one CSV block per group so the decay rates can be compared; the
ratio column is an exact reduced fraction.

Usage: python3 scripts/folner_decay.py [n_max]
"""

import sys
from fractions import Fraction
from itertools import islice

from entrolen.folner import boundary, default_scheme, nested_sets
from entrolen.groups import ball, FreeAbelian, Heisenberg, ZCrossZ2


def main():
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    for group in (FreeAbelian(1), FreeAbelian(2), ZCrossZ2(), Heisenberg()):
        scheme = default_scheme(group)
        C = ball(group, 1)
        print(f"# group={group.name} scheme={scheme.name} C=ball(1)")
        print("n,folner_size,boundary_size,ratio")
        for n, F in islice(nested_sets(scheme, n_max), 1, None):
            b = len(boundary(F, C))
            r = Fraction(b, len(F))
            print(f"{n},{len(F)},{b},{r.numerator}/{r.denominator}")
        print()


if __name__ == "__main__":
    main()

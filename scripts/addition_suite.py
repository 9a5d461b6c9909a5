#!/usr/bin/env python3
"""Additivity sweep over the built-in module/submodule suite.

Prints, for each pair, the three window entropies at n_max together with
the discrepancy e(M) - e(N) - e(M/N) and the window checks.

Usage: python3 scripts/addition_suite.py [n_max]
"""

import sys
from fractions import Fraction

from entrolen.crossed_product import parse_element, trivial_cocycle
from entrolen.entropy import addition_check
from entrolen.exact_linalg import PrimeField
from entrolen.folner import Boxes, BoxTimesZ2
from entrolen.groups import FreeAbelian, ZCrossZ2
from entrolen.shift_modules import bernoulli, cyclic_presentation, SubshiftPresentation

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def build_suite():
    Z, Z2, X = FreeAbelian(1), FreeAbelian(2), ZCrossZ2()
    cz = trivial_cocycle(GF2, Z)
    cz2 = trivial_cocycle(GF2, Z2)
    cx = trivial_cocycle(GF3, X)
    M_Z = bernoulli(cz, 1)
    return [
        ("K[Z] / (t-1)", M_Z,
         cyclic_presentation(cz, parse_element(GF2, Z, "1*(0) + 1*(1)")), Boxes(Z)),
        ("K[Z^2] / (t1-1)", bernoulli(cz2, 1),
         cyclic_presentation(cz2, parse_element(GF2, Z2, "1*(0,0) + 1*(1,0)")), Boxes(Z2)),
        ("GF3[ZxZ2] / (e+s)", bernoulli(cx, 1),
         cyclic_presentation(cx, parse_element(GF3, X, "1*(0,0) + 1*(0,1)")), BoxTimesZ2(X)),
        ("M / 0", M_Z, SubshiftPresentation(cz, 1, ()), Boxes(Z)),
        ("M / M", M_Z, M_Z, Boxes(Z)),
    ]


def main():
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    print(f"{'pair':22s} {'e(M)':>8s} {'e(N)':>8s} {'e(M/N)':>8s} {'disc':>8s}  checks")
    for name, M, N, scheme in build_suite():
        rep = addition_check(M, N, scheme, n_max, Fraction(1, 20))
        # addition_check raises unless every window splits exactly
        checks = "ses"
        checks += ",lower-bound" if rep.lower_bound_ok_all else ",LOWER-BOUND-FAIL"
        checks += ",stable" if rep.all_stabilized else ",BUDGET"
        print(
            f"{name:22s} {str(rep.e_total):>8s} {str(rep.e_sub):>8s} "
            f"{str(rep.e_quotient):>8s} {str(rep.discrepancy):>8s}  {checks}"
        )


if __name__ == "__main__":
    main()

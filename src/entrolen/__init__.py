"""Exact Folner calculus, quasi-tilings and trajectory entropy for
modules over twisted group algebras of concrete amenable groups.

The Python API lives in the submodules (groups, folner, exact_linalg,
crossed_product, tiling, shift_modules, entropy) and the command line in
cli; the package itself re-exports nothing.
"""

__version__ = "0.1.0"

"""Seeded inputs and fixed job lists for the three benchmark workloads.

Every job is either a CLI invocation (an argv list for ``entrolen.cli.main``)
or a Python-API call.  Inputs come only from the workload seed: generator
supports are drawn inside the radius-1 box of the group with a fixed term
count per job, coefficients are random nonzero field elements, and the
matching families place their singletons at seeded positions.  The seed is
folded onto ``SLOTS`` input sets, every one of which has been run when the
expected outputs were recorded (see ``golden/``); the same seed always gives
the same inputs.

Each job also carries a check derived from theory alone, independent of
the stored outputs; it returns a description of the first violation, or
None.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

SLOTS = 32
WORKLOADS = ("trajectory", "quotient", "combinatorics")

# Interval length of the matching family that the recursive matcher
# cannot finish: about 1600 elements still succeed, about 2000 exceed
# the default recursion limit.  It is a known defect and stays visible.
OVERSIZED_INTERVAL = 2000


@dataclass
class Job:
    name: str
    argv: list | None = None  # CLI job
    api: Callable | None = None  # API job: returns (exit_code, stdout)
    check: Callable | None = None  # (exit_code, stdout) -> problem | None
    golden: bool = True  # compare stdout with the stored digest
    # A known defect: this exception is counted as a failed job, not as a
    # wrong result, and the job is timed apart from the others.
    expected_error: type | None = None


@dataclass
class Workload:
    name: str
    slot: int
    jobs: list = field(default_factory=list)


def slot_of(seed: int) -> int:
    return seed % SLOTS


# ---------------------------------------------------------------- inputs


def _box(group: str):
    """Elements of the radius-1 box of a group, in canonical order."""
    if group == "ZxZ2":
        return [(a, t) for a in (-1, 0, 1) for t in (0, 1)]
    d = {"Z": 1, "Heisenberg": 3}.get(group)
    if d is None:
        d = int(group.split("^")[1])
    return list(itertools.product((-1, 0, 1), repeat=d))


def _coeff(rng: random.Random, fld: str) -> str:
    """A random nonzero coefficient in the CLI's text form."""
    if fld == "q":
        return str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
    if fld == "gf4":
        c = rng.randrange(1, 4)
        return f"{c % 2}+{c // 2}*w"
    p = int(fld[2:])
    return str(rng.randrange(1, p))


def _elem(g) -> str:
    return "(" + ",".join(str(x) for x in g) + ")"


def _generator(shape_rng, rng, group, fld, rank, terms) -> str:
    """One generator with `terms` distinct (position, coordinate) keys: the
    keys come from shape_rng, the coefficients from rng."""
    keys = [(g, j) for g in _box(group) for j in range(1, rank + 1)]
    chosen = sorted(shape_rng.sample(keys, terms))
    return " + ".join(f"{_coeff(rng, fld)}*{_elem(g)}|{j}" for g, j in chosen)


def _generators(shape_rng, rng, group, fld, rank, count, terms) -> str:
    return ";".join(
        _generator(shape_rng, rng, group, fld, rank, terms) for _ in range(count)
    )


def _element(shape_rng, rng, group, fld, terms) -> str:
    """A ring element (no coordinates) with `terms` terms in the box."""
    chosen = sorted(shape_rng.sample(_box(group), terms))
    return " + ".join(f"{_coeff(rng, fld)}*{_elem(g)}" for g in chosen)


def _unit_generators(group, rank) -> str:
    """The free module itself: one identity-supported generator per slot."""
    e = _elem((0,) * len(_box(group)[0]))
    return ";".join(f"1*{e}|{j}" for j in range(1, rank + 1))


# ---------------------------------------------------------------- checks


def _csv_rows(out: str):
    lines = out.splitlines()
    return [line.split(",") for line in lines[1:]]


def _all_ratios(want):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        bad = [r for r in _csv_rows(out) if r[3] != want]
        return f"ratio {bad[0][3]} at n={bad[0][0]}, expected {want}" if bad else None

    return check


def _exit_ok(code, out):
    return None if code == 0 else f"exit {code}"


def _keyvals(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def _addition_passes(code, out):
    if code != 0:
        return f"exit {code}"
    kv = _keyvals(out)
    for key in ("ses_exact", "pass"):
        if kv.get(key) != "true":
            return f"{key}={kv.get(key)}"
    return None


def _boundary_ratios(formula):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        for n, _, _, ratio in _csv_rows(out):
            want = formula(int(n))
            if Fraction(ratio) != want:
                return f"boundary ratio {ratio} at n={n}, expected {want}"
        return None

    return check


def _tile_passes(code, out):
    if code != 0:
        return f"exit {code}"
    conds = [line.split(",") for line in out.splitlines()[:3]]
    bad = [c[0] for c in conds if len(c) != 3 or c[1] != "pass"]
    return f"tiling conditions failed: {bad}" if bad or len(conds) != 3 else None


def _key_equals(**want):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        kv = _keyvals(out)
        for key, value in want.items():
            if kv.get(key) != value:
                return f"{key}={kv.get(key)}, expected {value}"
        return None

    return check


# ---------------------------------------------------------------- matching


def _matching_job(name, m, k, rng, expected_error=None):
    """check_epsilon_disjoint at eps=1/2 on an m-interval of Z followed by
    k distinct singletons inside it.  The interval takes everything in the
    greedy pass, so only the exact matching can decide; the family is
    eps-disjoint exactly when m - k >= floor(m/2) + 1."""
    positions = sorted(rng.sample(range(m), k))
    expected = m - k >= m // 2 + 1

    def run():
        from entrolen import groups, tiling

        Z = groups.FreeAbelian(1)
        family = [groups.FiniteSubset(Z, [(i,) for i in range(m)])]
        family += [groups.FiniteSubset(Z, [(p,)]) for p in positions]
        res = tiling.check_epsilon_disjoint(family, Fraction(1, 2))
        problem = _witness_problem(family, res) if res.ok else None
        out = f"ok={str(res.ok).lower()}\n"
        return (0 if problem is None else 1), out + (problem or "")

    def check(code, out):
        if code != 0:
            return f"invalid witnesses: {out.splitlines()[1:]}"
        got = out.splitlines()[0]
        want = f"ok={str(expected).lower()}"
        return None if got == want else f"{got}, expected {want} (m={m}, k={k})"

    return Job(name, api=run, check=check, golden=False, expected_error=expected_error)


def _witness_problem(family, res):
    """Independent check of eps-disjointness witnesses at eps=1/2."""
    if len(res.witnesses) != len(family):
        return "one witness per set expected"
    seen: set = set()
    for A, W in zip(family, res.witnesses):
        if not W.elements <= A.elements:
            return "witness outside its set"
        if W.elements & seen:
            return "witnesses overlap"
        if 2 * len(W) <= len(A):
            return "witness below quota"
        seen |= W.elements
    return None


# ---------------------------------------------------------------- workloads
#
# Supports are drawn once per job from a generator keyed by the job name, so
# every seed measures the same fill-in pattern: with seeded supports the
# cost of one job varied about 10x between seeds (Z rank 3 at n=150 took
# 0.7 s to 7.3 s), which no run length could average out.  The
# workload seed draws the coefficients, the zero-divisor candidate, the
# cocycle sample seed and the singleton positions of the matching families.


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    slot = slot_of(seed)
    wl = Workload(name, slot)
    _readme_jobs(wl)
    _BUILDERS[name](wl, random.Random(f"{name}:{slot}"))
    return wl


def _shape(job_name: str) -> random.Random:
    return random.Random(f"shape:{job_name}")


def _readme_jobs(wl):
    """The README's example commands at toy sizes, first in every workload.

    They take 1-2% of a pass.  They put every command through the
    output checks on every workload, and they call every traced layer at
    least once, so no per-layer time is zero by construction."""
    _cli(wl, "readme-entropy",
         ["entropy", "--group", "Z", "--field", "gf2", "--rank", "3",
          "--gen", "1*(0)|1;1*(0)|2;1*(0)|3", "--nmax", "8"], _all_ratios("3/1"))
    # Tile-ratio bound for a cyclic module: 1 * 1/10 + 1 / (9/10) = 109/90.
    _cli(wl, "readme-entropy-certified",
         ["entropy", "--group", "Z", "--field", "gf2", "--rank", "1", "--gen", "1*(0)|1",
          "--nmax", "5", "--certify-eps", "1/10", "--tiles", "5", "--ncheck", "5"],
         _key_equals(certified_upper="109/90"))
    _cli(wl, "readme-quotient-entropy",
         ["quotient-entropy", "--group", "Z", "--field", "gf3", "--rank", "1",
          "--gen", "1*(0)|1", "--ngen", "2*(0)|1 + 1*(1)|1", "--nmax", "8"], _exit_ok)
    _cli(wl, "readme-addition-check",
         ["addition-check", "--group", "ZxZ2", "--field", "gf3", "--rank", "1",
          "--gen", "1*(0,0)|1", "--ngen", "1*(0,0)|1 + 1*(0,1)|1", "--nmax", "8",
          "--tol", "1/20"], _addition_passes)
    # (1 + s)(1 - s) = 0 in K[ZxZ2].
    _cli(wl, "readme-zerodiv",
         ["zerodiv", "--group", "ZxZ2", "--field", "gf3", "--elem", "1*(0,0) + 1*(0,1)",
          "--nmax", "4", "--radius", "3"], _key_equals(verdict="zero-divisor"))
    _cli(wl, "readme-tile",
         ["tile", "--group", "Z", "--target", "20", "--tiles", "2", "--eps", "1/10"],
         _tile_passes)
    _cli(wl, "readme-folner-ratios", ["folner-ratios", "--group", "Z", "--nmax", "10"],
         _boundary_ratios(lambda n: Fraction(4, 2 * n + 1)))
    _cli(wl, "readme-validate-cocycle",
         ["validate-cocycle", "--field", "gf4", "--group", "Z", "--sigma", "frobenius",
          "--rho", "trivial"], _key_equals(result="pass"))


def _cli(wl, name, argv, check):
    wl.jobs.append(Job(name, argv=argv, check=check))


def _build_trajectory(wl, rng):
    """GF(2) entropy trajectories, plain cocycle: echelon insertion and the
    plain act path; beyond the toy README commands no quotient, tiling or
    boundary work."""

    def entropy(name, group, rank, count, terms, nmax, check):
        gens = _generators(_shape(name), rng, group, "gf2", rank, count, terms)
        argv = ["entropy", "--group", group, "--field", "gf2", "--rank", str(rank),
                "--gen", gens, "--nmax", str(nmax)]
        _cli(wl, name, argv, check)

    entropy("z2-cyclic", "Z^2", 1, 1, 5, 22, _all_ratios("1/1"))
    entropy("z2-rank2", "Z^2", 2, 3, 3, 14, _exit_ok)
    entropy("z3-cyclic", "Z^3", 1, 1, 4, 6, _all_ratios("1/1"))
    entropy("heisenberg-cyclic", "Heisenberg", 1, 1, 4, 8, _all_ratios("1/1"))
    entropy("z-rank3", "Z", 3, 3, 3, 150, _exit_ok)


def _build_quotient(wl, rng):
    """Quotient splits and addition checks without GF(2): reduction against
    large fixed echelons, Zassenhaus-tagged labels, intersect, the twisted
    act path and growing E_m windows."""

    def quotient(name, command, group, fld, rank, ngens, terms, nmax, check,
                 extra=()):
        # Two instances with their own supports and coefficients halve the
        # seed-to-seed variance that the coefficients alone cause.
        for instance in (f"{name}-a", f"{name}-b"):
            ngen = _generators(_shape(instance), rng, group, fld, rank, ngens, terms)
            argv = [command, "--group", group, "--field", fld, "--rank", str(rank),
                    "--gen", _unit_generators(group, rank), "--ngen", ngen,
                    "--nmax", str(nmax), *extra]
            _cli(wl, instance, argv, check)

    quotient("z2-gf3", "quotient-entropy", "Z^2", "gf3", 1, 1, 4, 9, _exit_ok)
    quotient("zxz2-gf3-addition", "addition-check", "ZxZ2", "gf3", 1, 1, 3, 60,
             _addition_passes)
    quotient("z-gf4-frobenius", "quotient-entropy", "Z", "gf4", 2, 2, 3, 45,
             _exit_ok, ("--cocycle", "frobenius"))
    quotient("heisenberg-gf3", "quotient-entropy", "Heisenberg", "gf3", 1, 1, 3, 4,
             _exit_ok)
    quotient("z-q-addition", "addition-check", "Z", "q", 2, 1, 3, 24,
             _addition_passes)


def _build_combinatorics(wl, rng):
    """Folner sets, boundaries, tiling, annihilator search, cocycle checks
    and the exact matching fallback: almost no linear algebra."""

    def folner(name, group, nmax, check=_exit_ok):
        _cli(wl, name, ["folner-ratios", "--group", group, "--nmax", str(nmax)], check)

    folner("folner-z", "Z", 40, _boundary_ratios(lambda n: Fraction(4, 2 * n + 1)))
    folner("folner-z2", "Z^2", 30,
           _boundary_ratios(lambda n: Fraction(16 * n + 8, (2 * n + 1) ** 2)))
    folner("folner-z3", "Z^3", 7)
    folner("folner-heisenberg", "Heisenberg", 9)
    _cli(wl, "tile-z2", ["tile", "--group", "Z^2", "--target", "30",
                         "--tiles", "2,5", "--eps", "1/10"], _tile_passes)
    # K[Z^2] is a domain: no annihilator exists at any radius.
    elem = _element(_shape("zerodiv-z2-gf3"), rng, "Z^2", "gf3", 3)
    _cli(wl, "zerodiv-z2-gf3",
         ["zerodiv", "--group", "Z^2", "--field", "gf3", "--elem", elem,
          "--nmax", "2", "--radius", "8"],
         _key_equals(verdict="no evidence up to budget", witness="none"))
    _cli(wl, "cocycle-gf9-heisenberg",
         ["validate-cocycle", "--group", "Heisenberg", "--field", "gf9",
          "--sigma", "frobenius", "--budget", "20000",
          "--seed", str(rng.randrange(1 << 30))],
         _key_equals(result="pass"))
    for i, (m, k) in enumerate(((300, 100), (300, 160), (400, 180), (400, 220))):
        wl.jobs.append(_matching_job(f"matching-{i}-m{m}", m, k, rng))
    m = OVERSIZED_INTERVAL
    wl.jobs.append(_matching_job(f"matching-oversized-m{m}", m, m // 4, rng,
                                 expected_error=RecursionError))


_BUILDERS = {
    "trajectory": _build_trajectory,
    "quotient": _build_quotient,
    "combinatorics": _build_combinatorics,
}

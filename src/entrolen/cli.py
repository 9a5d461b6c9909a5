"""Command-line surface: deterministic batch runs with CSV or key=value
output.

Exit codes: 0 success, 2 validation error (bad flags, malformed files),
3 budget exhaustion or heuristic failure with partial output written.
Flags override values from an optional key=value config file; the env
var ENTROLEN_SEED overrides --seed, the sampling seed of validate-cocycle.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from math import comb

from .crossed_product import (
    _parse_terms,
    cocycle_from_name,
    format_element,
    parse_element,
    validate_cocycle,
)
from .exact_linalg import field_from_name
from .folner import boundary_sizes, default_scheme, scheme_from_name, WordBalls
from .groups import (
    FiniteSubset,
    format_group_element,
    FreeAbelian,
    group_from_name,
    ZCrossZ2,
)
from .entropy import (
    addition_check,
    certified_upper_bound,
    estimate,
    estimate_quotient,
    zero_divisor_scan,
)
from .shift_modules import (
    parse_presentation_text,
    PresentationError,
    StabilizationConfig,
    SubshiftPresentation,
)
from .tiling import greedy_quasi_tile, TilingFailed

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
# The most cells of a window named by --cradius, --target, --tiles,
# --ncheck or --nmax, counted before it is built: 10^6 cells of Z^2 take
# about 93 MB.  It counts cells, not echelon memory: a packed row holds as
# many bits as its pivot's index, so a window's echelon grows as |F|^2, and
# entropy on Z^2 at --nmax 499 (998001 cells) exits 3 out of memory under a
# 1 GB address-space cap.  ROADMAP item 4 counts the echelon bytes instead.
MAX_CELLS = 10**6


def _fmt_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


class CliError(Exception):
    pass


def parse_presentation(path: str) -> SubshiftPresentation:
    """Load a presentation file; parse failures carry line/column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    try:
        return parse_presentation_text(text)
    except PresentationError as exc:
        raise CliError(f"{path}:{exc.line}:{exc.col}: {exc.message}") from None


def _parse_inline_generators(field, group, rank: int, text: str, flag: str):
    """Inline generator list: generators joined by ";", each a " + "-joined
    list of terms coeff*(g)|coord with 1-based coordinates."""
    generators = []
    col = 1
    for gen_str in text.split(";"):
        if not gen_str.strip():
            raise CliError(f"empty generator in --{flag}")
        try:
            vec = _parse_terms(field, group, gen_str, rank, col)
        except ValueError as exc:
            raise CliError(f"--{flag}: {exc}") from None
        if not vec:
            raise CliError(f"--{flag}: generator vanishes after combining terms")
        generators.append(vec)
        col += len(gen_str) + len(";")
    return generators


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad fraction {text!r}") from None


def _int_list_arg(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


_GEN = ("entropy", "quotient-entropy", "addition-check")
_RING = _GEN + ("zerodiv",)  # the commands that build a twisted product
_SCHEMED = _RING + ("tile", "folner-ratios")
_ALL = _SCHEMED + ("validate-cocycle",)
_SUB = ("quotient-entropy", "addition-check")
_STAB = _SUB + ("zerodiv",)

# Every option once, as (key, converter, choices, commands).  The flag is
# --key with "_" spelled "-"; the same converter and choices check the
# key=value lines of a config file.  Table order is --help order.
_OPTIONS = (
    ("group", str, None, _ALL),
    ("field", str, None, _RING + ("validate-cocycle",)),
    ("scheme", str, None, _SCHEMED),
    ("cocycle", str, None, _RING),
    ("seed", int, None, ("validate-cocycle",)),
    ("out", str, None, _ALL),
    ("rank", int, None, _GEN),
    ("gen", str, None, _GEN),
    ("ngen", str, None, _SUB),
    ("presentation", str, None, _GEN),
    ("npresentation", str, None, _SUB),
    ("elem", str, None, ("zerodiv",)),
    ("nmax", int, None, _GEN + ("zerodiv", "folner-ratios")),
    ("target", int, None, ("tile",)),
    ("certify_eps", _fraction_arg, None, ("entropy",)),
    ("tiles", _int_list_arg, None, ("entropy", "tile")),
    ("ncheck", int, None, ("entropy",)),
    ("eps", _fraction_arg, None, ("tile",)),
    ("tol", _fraction_arg, None, ("addition-check",)),
    ("radius", int, None, ("zerodiv",)),
    ("stability_window", int, None, _STAB),
    ("max_steps", int, None, _STAB),
    ("cshape", str, ("box", "ball"), ("folner-ratios",)),
    ("cradius", int, None, ("folner-ratios",)),
    ("sigma", str, ("trivial", "frobenius"), ("validate-cocycle",)),
    ("rho", str, ("trivial",), ("validate-cocycle",)),
    ("budget", int, None, ("validate-cocycle",)),
)


def _command_options(command: str) -> dict:
    """key -> (converter, choices) for the options of one command."""
    return {
        key: (conv, choices)
        for key, conv, choices, commands in _OPTIONS
        if command in commands
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="entrolen",
        description="Exact Folner, tiling and trajectory-entropy runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override")
        for key, (conv, choices) in _command_options(command).items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=conv, choices=choices)
    return parser


def _load_config_file(path: str, command: str) -> dict:
    values: dict = {}
    options = _command_options(command)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            raise CliError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        conv, choices = options[key]
        try:
            values[key] = conv(value.strip())
        except (ValueError, argparse.ArgumentTypeError):
            raise CliError(f"{path}:{lineno}: bad value for {key!r}") from None
        if choices and values[key] not in choices:
            raise CliError(
                f"{path}:{lineno}: {key} must be one of {', '.join(choices)}"
            )
    return values


class RunConfig:
    """Merged, validated configuration for one command invocation."""

    def __init__(self, ns: argparse.Namespace):
        self.command = ns.command
        merged: dict = {}
        if ns.config:
            merged.update(_load_config_file(ns.config, ns.command))
        options = _command_options(ns.command)
        for key in options:
            flag = getattr(ns, key)
            if flag is not None:
                merged[key] = flag
        env_seed = os.environ.get("ENTROLEN_SEED")
        if env_seed is not None and "seed" in options:
            try:
                merged["seed"] = int(env_seed)
            except ValueError:
                raise CliError(f"bad ENTROLEN_SEED {env_seed!r}") from None
        self.values = merged

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise CliError(f"missing required option --{key.replace('_', '-')}")
        return self.values[key]

    def index(self, key):
        """The window index, or tuple of indices, of --key; each is >= 0."""
        value = self.require(key)
        if min(value if isinstance(value, tuple) else (value,)) < 0:
            raise CliError(f"--{key} must be >= 0")
        return value

    def refuse(self, keys, path: str):
        """Exit 2 on the given options among keys, which path never reads."""
        given = [f"--{k.replace('_', '-')}" for k in keys if k in self.values]
        if given:
            raise CliError(f"{path} never reads {', '.join(given)}")

    def group(self):
        return group_from_name(self.require("group"))

    def field(self):
        return field_from_name(self.require("field"))

    def scheme(self, group):
        name = self.get("scheme")
        return default_scheme(group) if name is None else scheme_from_name(name, group)

    def cocycle(self, field, group):
        return cocycle_from_name(self.get("cocycle", "trivial"), field, group)

    def stabilization(self) -> StabilizationConfig:
        return StabilizationConfig(
            stability_window=self.get("stability_window", 3),
            max_steps=self.get("max_steps", 30),
        )

    def presentation(self):
        path = self.get("presentation")
        if path is not None:
            self.refuse(("group", "field", "cocycle", "rank", "gen"), "--presentation")
            return parse_presentation(path)
        field = self.field()
        group = self.group()
        rank = self.require("rank")
        if rank < 1:
            raise CliError("rank must be >= 1")
        cocycle = self.cocycle(field, group)
        text = self.get("gen")
        if text is None:
            raise CliError("need --gen or --presentation")
        gens = _parse_inline_generators(field, group, rank, text, "gen")
        return SubshiftPresentation(cocycle, rank, gens)


def _budget_status(exhausted) -> int:
    """Name each window that ran out of max_steps on stderr; the exit code."""
    for n, size, steps in exhausted:
        print(
            f"error: window n={n} |F|={size} ran out of max_steps after "
            f"{steps} growth steps without stabilizing",
            file=sys.stderr,
        )
    return EXIT_BUDGET if exhausted else EXIT_OK


def _estimate_csv(est) -> list:
    lines = ["n,folner_size,trajectory_dim,ratio"]
    for row in est.rows:
        lines.append(
            f"{row.n},{row.folner_size},{row.dim},{_fmt_fraction(row.ratio)}"
        )
    return lines


def _cmd_entropy(run: RunConfig) -> int:
    pres = run.presentation()
    certify = run.get("certify_eps") is not None
    if not certify:
        run.refuse(("tiles", "ncheck"), "a run without --certify-eps")
    scheme = run.scheme(pres.group)
    n_max = _nmax(run, scheme)
    if certify:
        tiles = run.index("tiles")
        n_check = run.get("ncheck", max(tiles))
        for key, n in (("tiles", max(tiles)), ("ncheck", n_check)):
            _set_at(scheme, n, key)  # exit 2 before a window is tiled
    est = estimate(pres, scheme, n_max)
    status = EXIT_OK
    extra = []
    if certify:
        eps = run.require("certify_eps")
        try:
            cert = certified_upper_bound(pres, scheme, eps, tiles, n_check)
            extra.append(f"certified_upper={_fmt_fraction(cert.bound)}")
            extra.append(f"certified_windows={cert.checked_from}..{cert.checked_to}")
        except TilingFailed as exc:
            extra.append(f"certified_upper=unavailable ({exc})")
            status = EXIT_BUDGET
    _emit(_estimate_csv(est) + extra, run.get("out"))
    return status


def _cmd_quotient(run: RunConfig) -> int:
    pres = run.presentation()
    sub = _sub_presentation(run, pres)
    scheme = run.scheme(pres.group)
    est = estimate_quotient(
        pres, sub, scheme, _nmax(run, scheme), run.stabilization()
    )
    _emit(_estimate_csv(est), run.get("out"))
    return _budget_status(est.exhausted)


def _sub_presentation(run: RunConfig, ambient: SubshiftPresentation):
    path = run.get("npresentation")
    if path is not None:
        run.refuse(("ngen",), "--npresentation")
        return parse_presentation(path)
    text = run.get("ngen")
    if text is None:
        raise CliError("need --ngen or --npresentation")
    if text.strip() in ("", "0"):
        gens = []  # the zero submodule is presented by no generators
    else:
        gens = _parse_inline_generators(
            ambient.field, ambient.group, ambient.rank, text, "ngen"
        )
    return SubshiftPresentation(ambient.cocycle, ambient.rank, gens)


def _cmd_addition(run: RunConfig) -> int:
    pres = run.presentation()
    sub = _sub_presentation(run, pres)
    scheme = run.scheme(pres.group)
    report = addition_check(
        pres,
        sub,
        scheme,
        _nmax(run, scheme),
        run.get("tol", Fraction(1, 20)),
        run.stabilization(),
    )
    lines = [
        f"e_total={_fmt_fraction(report.e_total)}",
        f"e_sub={_fmt_fraction(report.e_sub)}",
        f"e_quotient={_fmt_fraction(report.e_quotient)}",
        f"discrepancy={_fmt_fraction(report.discrepancy)}",
        f"tolerance={_fmt_fraction(report.tolerance)}",
        f"within_tolerance={str(report.passed).lower()}",
        # _quotient_split raises unless every window splits exactly
        "ses_exact=true",
        f"lower_bound_inequality={str(report.lower_bound_ok_all).lower()}",
        f"stabilized={str(report.all_stabilized).lower()}",
        f"pass={str(report.passed).lower()}",
    ]
    _emit(lines, run.get("out"))
    return _budget_status(report.exhausted)


def _cmd_zerodiv(run: RunConfig) -> int:
    field = run.field()
    group = run.group()
    cocycle = run.cocycle(field, group)
    try:
        x = parse_element(field, group, run.require("elem"))
    except ValueError as exc:
        raise CliError(f"--elem: {exc}") from None
    if x.is_zero():
        raise CliError("element must be nonzero")
    scheme = run.scheme(group)
    report = zero_divisor_scan(
        x,
        cocycle,
        scheme,
        _nmax(run, scheme),
        run.require("radius"),
        run.stabilization(),
    )
    lines = [
        f"verdict={report.verdict}",
        f"witness={format_element(report.witness) if report.witness else 'none'}",
        f"submodule_ratio={_fmt_fraction(report.submodule.estimate)}",
        f"quotient_ratio={_fmt_fraction(report.quotient.estimate)}",
        f"integrality_distance={_fmt_fraction(report.integrality)}",
        f"stabilized={str(report.quotient.all_stabilized).lower()}",
    ]
    _emit(lines, run.get("out"))
    return _budget_status(report.quotient.exhausted)


def _cells(scheme, n: int):
    """|F_n| in closed form for a box, an L1 ball of Z^d or
    B_n = [-n, n] x {0} + [1-n, n-1] x {1} of ZxZ2; None for a word ball
    of the Heisenberg group, which has none here."""
    group, boxed = scheme.group, scheme.name != "balls"
    if isinstance(group, ZCrossZ2):
        return 4 * n + 2 if boxed else max(4 * n, 1)
    if isinstance(group, FreeAbelian):
        d = group.dim
        return (2 * n + 1) ** d if boxed else sum(
            2**k * comb(d, k) * comb(n, k) for k in range(d + 1))
    return None


def _counted(shells, n: int, message):
    """The first n + 1 of shells, counted as they pass: at the first shell
    k whose window F_k holds over MAX_CELLS cells, exit 2 with
    message(k, cells), so a refusal builds at most one shell past the
    limit and an admitted window is grown once."""
    cells = 0
    for k, shell in enumerate(islice(shells, n + 1)):
        cells += len(shell)
        if cells > MAX_CELLS:
            raise CliError(f"{message(k, cells)}, over the limit of {MAX_CELLS}")
        yield shell


def _set_at(scheme, n: int, key: str):
    """scheme.set_at(n); exit 2 first if it holds over MAX_CELLS cells,
    counted by _cells, or by _counted as a Heisenberg ball grows."""
    cells = _cells(scheme, n)
    if cells is None:
        counted = _counted(scheme.shells(), n,
                           lambda k, cells: f"--{key} {n} names at least {cells} cells")
        return FiniteSubset._raw(scheme.group, frozenset().union(*counted))
    if cells > MAX_CELLS:
        raise CliError(f"--{key} {n} names {cells} cells, over the limit of {MAX_CELLS}")
    return scheme.set_at(n)


def _windows(scheme, n_max: int):
    """The shells of scheme, after exit 2 naming the first window F_n,
    n <= n_max, over MAX_CELLS cells, found by bisection on _cells, or
    counted by _counted, as they are read, where _cells has no count."""
    def message(k, cells):
        return f"--nmax {n_max}: window n={k} holds {cells} cells"

    if _cells(scheme, n_max) is None:
        return _counted(scheme.shells(), n_max, message)
    k = bisect_right(range(n_max + 1), MAX_CELLS, key=lambda n: _cells(scheme, n))
    if k <= n_max:
        raise CliError(f"{message(k, _cells(scheme, k))}, over the limit of {MAX_CELLS}")
    return scheme.shells()


def _nmax(run: RunConfig, scheme) -> int:
    """--nmax, after _windows checks the windows that _cells counts, before
    any is built.  A Heisenberg ball passes: its shells are never read here,
    as counting them would grow every ball twice."""
    n_max = run.require("nmax")
    _windows(scheme, n_max)
    return n_max


def _cmd_tile(run: RunConfig) -> int:
    group = run.group()
    scheme = run.scheme(group)
    target = _set_at(scheme, run.index("target"), "target")
    tiles = [_set_at(scheme, i, "tiles") for i in run.index("tiles")]
    eps = run.require("eps")
    try:
        tiling = greedy_quasi_tile(target, tiles, eps)
    except TilingFailed as exc:
        cover = exc.cover if exc.cover is not None else Fraction(0)
        _emit([f"construction,fail,{_fmt_fraction(cover)}"], run.get("out"))
        return EXIT_BUDGET
    lines = []
    for cond in tiling.report.conditions:
        status = "pass" if cond.passed else "fail"
        lines.append(f"{cond.name},{status},{_fmt_fraction(cond.ratio)}")
    for i, centers in enumerate(tiling.centers, start=1):
        cs = ";".join(format_group_element(g) for g in centers)
        lines.append(f"{i}:{cs}")
    _emit(lines, run.get("out"))
    return EXIT_OK


def _cmd_folner(run: RunConfig) -> int:
    group = run.group()
    scheme = run.scheme(group)
    n_max = run.require("nmax")
    if n_max < 1:
        raise CliError("n_max must be >= 1")
    shape = run.get("cshape", "box" if scheme.name in ("boxes", "boxz2") else "ball")
    radius = run.get("cradius", 1)
    if radius < 0:
        raise CliError("radius must be >= 0")
    if shape == "box" and scheme.name not in ("boxes", "boxz2"):
        raise CliError("--cshape box needs a box scheme")
    C = _set_at(scheme if shape == "box" else WordBalls(group), radius, "cradius")
    lines = ["n,folner_size,boundary_size,ratio"]
    for n, size, b in boundary_sizes(group, _windows(scheme, n_max), C, n_max):
        lines.append(f"{n},{size},{b},{_fmt_fraction(Fraction(b, size))}")
    _emit(lines, run.get("out"))
    return EXIT_OK


def _cmd_validate(run: RunConfig) -> int:
    field = run.field()
    group = run.group()
    # --rho accepts only "trivial", the one rho constructible here
    cocycle = cocycle_from_name(run.get("sigma", "trivial"), field, group)
    report = validate_cocycle(
        cocycle, sample_budget=run.get("budget", 2000), seed=run.get("seed", 0)
    )
    lines = [f"result={'pass' if report.ok else 'fail'}"]
    if not report.ok:
        lines.append(f"violation={report.failure}")
    lines.append(f"checked_radius={report.checked_radius}")
    lines.append(f"triples_checked={report.triples_checked}")
    lines.append(f"associativity_samples={report.associativity_checked}")
    _emit(lines, run.get("out"))
    return EXIT_OK


_COMMANDS = {
    "entropy": (_cmd_entropy, "window ratios of a presentation"),
    "quotient-entropy": (_cmd_quotient, "quotient window ratios"),
    "addition-check": (_cmd_addition, "additivity report"),
    "zerodiv": (_cmd_zerodiv, "zero-divisor scan of a ring element"),
    "tile": (_cmd_tile, "greedy quasi-tiling of a Folner window"),
    "folner-ratios": (_cmd_folner, "boundary ratio CSV"),
    "validate-cocycle": (_cmd_validate, "sampled twist-data checks"),
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        run = RunConfig(ns)
        return _COMMANDS[ns.command][0](run)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())

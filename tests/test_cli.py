import os
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from entrolen.cli import build_parser, main, parse_presentation
from entrolen.shift_modules import parse_presentation_text


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_entropy_bernoulli_rank3(capsys):
    code, out, _ = run_cli(
        capsys,
        "entropy",
        "--group", "Z",
        "--field", "gf2",
        "--rank", "3",
        "--gen", "1*(0)|1;1*(0)|2;1*(0)|3",
        "--nmax", "6",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,folner_size,trajectory_dim,ratio"
    assert lines[1] == "1,3,9,3/1"
    assert all(line.endswith(",3/1") for line in lines[1:])
    assert len(lines) == 7


def test_entropy_with_a_far_generator_term(capsys):
    """A generator 10^8 wide along the inner coordinate of Z^2 is refused a
    box and runs on act + pack, in its usual time and memory."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "entropy",
        "--group", "Z^2",
        "--field", "gf2",
        "--rank", "1",
        "--gen", "1*(0,0)|1 + 1*(0,100000000)|1",
        "--nmax", "5",
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["n,folner_size,trajectory_dim,ratio"] + [
        f"{n},{(2 * n + 1) ** 2},{(2 * n + 1) ** 2},1/1" for n in range(1, 6)
    ]
    assert time.perf_counter() - start < 10


def test_entropy_with_certification(capsys):
    code, out, err = run_cli(
        capsys,
        "entropy",
        "--group", "Z",
        "--field", "gf2",
        "--rank", "1",
        "--gen", "1*(0)|1",
        "--nmax", "5",
        "--certify-eps", "1/10",
        "--tiles", "5",
        "--ncheck", "5",
    )
    assert (code, err) == (0, "")
    assert out == "".join(
        ["n,folner_size,trajectory_dim,ratio\n"]
        + [f"{n},{2 * n + 1},{2 * n + 1},1/1\n" for n in range(1, 6)]
        + ["certified_upper=109/90\n", "certified_windows=5..5\n"]
    )


def test_certification_budget_exit(capsys):
    code, out, err = run_cli(
        capsys,
        "entropy",
        "--group", "Z",
        "--field", "gf2",
        "--rank", "1",
        "--gen", "1*(0)|1",
        "--nmax", "6",
        "--certify-eps", "1/10",
        "--tiles", "5",
        "--ncheck", "6",
    )
    assert (code, err) == (3, "")
    assert out.splitlines() == ["n,folner_size,trajectory_dim,ratio"] + [
        f"{n},{2 * n + 1},{2 * n + 1},1/1" for n in range(1, 7)
    ] + ["certified_upper=unavailable (greedy cover 11/13 below required 9/10)"]


@pytest.mark.parametrize("flags, line", [
    (["--tiles", "3000"], "--tiles 3000 names 36012001 cells, over the limit of 1000000"),
    (["--tiles", "3", "--ncheck", "3000"],
     "--ncheck 3000 names 36012001 cells, over the limit of 1000000"),
    (["--tiles", "3", "--ncheck", "2"], "n_check (--ncheck) must reach the largest tile index"),
], ids=["tiles", "ncheck", "ncheck-below-tiles"])
def test_certified_windows_over_the_limit_exit_2(capsys, flags, line):
    """The largest tile window and the last checked window are counted
    before any window is built: exit 2 at once, naming the flag, as when
    --ncheck falls short of the largest tile."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "entropy", "--group", "Z^2", "--field", "gf2", "--rank", "1",
        "--gen", "1*(0,0)|1", "--nmax", "1", "--certify-eps", "1/10", *flags,
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: {line}\n"


def test_quotient_entropy(capsys):
    code, out, _ = run_cli(
        capsys,
        "quotient-entropy",
        "--group", "Z",
        "--field", "gf3",
        "--rank", "1",
        "--gen", "1*(0)|1",
        "--ngen", "2*(0)|1 + 1*(1)|1",
        "--nmax", "4",
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "1,3,1,1/3",
        "2,5,1,1/5",
        "3,7,1,1/7",
        "4,9,1,1/9",
    ]


def test_quotient_entropy_budget_exhaustion(capsys):
    code, out, err = run_cli(
        capsys,
        "quotient-entropy",
        "--group", "Z",
        "--field", "gf3",
        "--rank", "1",
        "--gen", "1*(0)|1",
        "--ngen", "2*(0)|1 + 1*(1)|1",
        "--nmax", "3",
        "--max-steps", "0",
    )
    assert code == 3
    # partial output still written
    assert out.startswith("n,folner_size,trajectory_dim,ratio")
    # stderr names every window that ran out of max_steps
    assert err.splitlines() == [
        f"error: window n={n} |F|={2 * n + 1} ran out of max_steps after "
        "0 growth steps without stabilizing"
        for n in (1, 2, 3)
    ]


def test_addition_check_budget_exhaustion_names_windows(capsys):
    args = (
        "addition-check",
        "--group", "ZxZ2",
        "--field", "gf3",
        "--rank", "1",
        "--gen", "1*(0,0)|1",
        "--ngen", "1*(0,0)|1 + 1*(0,1)|1",
        "--nmax", "2",
    )
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    code, budget_out, err = run_cli(capsys, *args, "--max-steps", "1")
    assert code == 3
    assert "stabilized=false" in budget_out
    assert err.splitlines() == [
        "error: window n=1 |F|=6 ran out of max_steps after 1 growth steps "
        "without stabilizing",
        "error: window n=2 |F|=10 ran out of max_steps after 1 growth steps "
        "without stabilizing",
    ]


def test_one_parser_serves_every_command(capsys):
    """main reuses one cached parser; each command prints what it prints
    with a freshly built parser."""
    commands = [
        ("entropy", "--group", "Z", "--field", "gf2", "--rank", "1",
         "--gen", "1*(0)|1", "--nmax", "3"),
        ("folner-ratios", "--group", "Z^2", "--nmax", "3"),
    ]
    commands.append(commands[0])
    fresh = []
    for args in commands:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *args))
    build_parser.cache_clear()
    reused = [run_cli(capsys, *args) for args in commands]
    assert reused == fresh
    assert all(code == 0 and out for code, out, _ in reused)
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()


def test_addition_check_lines(capsys):
    code, out, _ = run_cli(
        capsys,
        "addition-check",
        "--group", "ZxZ2",
        "--field", "gf3",
        "--rank", "1",
        "--gen", "1*(0,0)|1",
        "--ngen", "1*(0,0)|1 + 1*(0,1)|1",
        "--nmax", "6",
        "--tol", "1/20",
    )
    assert code == 0
    assert "e_total=1/1" in out
    assert "e_sub=1/2" in out
    assert "e_quotient=1/2" in out
    assert "discrepancy=0/1" in out
    assert "ses_exact=true" in out
    assert "pass=true" in out


def test_addition_check_z2_over_q_golden(capsys):
    """The scaled Z^2/Q addition check, byte for byte: the quotient rows
    run on primitive integer rows, whose dimensions are those of the
    Fraction rows that printed this output."""
    code, out, err = run_cli(
        capsys,
        "addition-check",
        "--group", "Z^2",
        "--field", "q",
        "--rank", "1",
        "--gen", "1*(0,0)|1",
        "--ngen", "2*(0,0)|1 + 1*(1,0)|1 + -1/2*(0,1)|1",
        "--nmax", "10",
    )
    assert (code, err) == (0, "")
    assert out == (
        "e_total=1/1\n"
        "e_sub=1/1\n"
        "e_quotient=41/441\n"
        "discrepancy=-41/441\n"
        "tolerance=1/20\n"
        "within_tolerance=false\n"
        "ses_exact=true\n"
        "lower_bound_inequality=true\n"
        "stabilized=true\n"
        "pass=false\n"
    )


_SCALED_QUOTIENTS = {
    # ball(7) of the Heisenberg group, 1,069 cells
    "heisenberg": (
        ["--group", "Heisenberg", "--gen", "1*(0,0,0)|1",
         "--ngen", "1*(0,0,0)|1 + 2*(1,0,0)|1 + 1*(0,1,0)|1", "--nmax", "7"],
        "n,folner_size,trajectory_dim,ratio\n"
        "1,5,4,4/5\n"
        "2,17,12,12/17\n"
        "3,53,34,34/53\n"
        "4,135,75,5/9\n"
        "5,299,138,6/13\n"
        "6,593,238,238/593\n"
        "7,1069,376,376/1069\n"
    ),
    # Z^2 boxes to n = 25, each window growing its own box shells
    "z2": (
        ["--group", "Z^2", "--gen", "1*(0,0)|1",
         "--ngen", "1*(0,0)|1 + 2*(1,0)|1 + 1*(0,1)|1 + 2*(1,1)|1", "--nmax", "25"],
        "n,folner_size,trajectory_dim,ratio\n"
        "1,9,5,5/9\n"
        "2,25,9,9/25\n"
        "3,49,13,13/49\n"
        "4,81,17,17/81\n"
        "5,121,21,21/121\n"
        "6,169,25,25/169\n"
        "7,225,29,29/225\n"
        "8,289,33,33/289\n"
        "9,361,37,37/361\n"
        "10,441,41,41/441\n"
        "11,529,45,45/529\n"
        "12,625,49,49/625\n"
        "13,729,53,53/729\n"
        "14,841,57,57/841\n"
        "15,961,61,61/961\n"
        "16,1089,65,65/1089\n"
        "17,1225,69,69/1225\n"
        "18,1369,73,73/1369\n"
        "19,1521,77,77/1521\n"
        "20,1681,81,81/1681\n"
        "21,1849,85,85/1849\n"
        "22,2025,89,89/2025\n"
        "23,2209,93,93/2209\n"
        "24,2401,97,97/2401\n"
        "25,2601,101,101/2601\n"
    ),
}


@pytest.mark.parametrize("case", sorted(_SCALED_QUOTIENTS))
def test_scaled_quotient_golden(capsys, case):
    """Two scaled GF(3) quotient runs, byte for byte as they printed when
    every translate was acted on and packed and every box shell grown by
    translation."""
    args, expected = _SCALED_QUOTIENTS[case]
    code, out, err = run_cli(
        capsys, "quotient-entropy", "--field", "gf3", "--rank", "1", *args
    )
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize("tol, code", [("-1", 2), ("0", 0)])
def test_addition_check_rejects_a_negative_tolerance(capsys, tol, code):
    got, out, err = run_cli(
        capsys,
        "addition-check",
        "--group", "ZxZ2",
        "--field", "gf3",
        "--rank", "1",
        "--gen", "1*(0,0)|1",
        "--ngen", "1*(0,0)|1 + 1*(0,1)|1",
        "--nmax", "6",
        "--tol", tol,
    )
    assert got == code
    if code:
        assert out == "" and err == "error: tol must be >= 0\n"
    else:
        assert "tolerance=0/1" in out and "pass=true" in out


def test_zerodiv_verdicts(capsys):
    code, out, _ = run_cli(
        capsys,
        "zerodiv",
        "--group", "ZxZ2",
        "--field", "gf3",
        "--elem", "1*(0,0) + 1*(0,1)",
        "--nmax", "6",
        "--radius", "6",
    )
    assert code == 0
    assert "verdict=zero-divisor" in out
    assert "witness=1*(0,0) + 2*(0,1)" in out
    assert "submodule_ratio=1/2" in out
    code, out, _ = run_cli(
        capsys,
        "zerodiv",
        "--group", "Z",
        "--field", "gf3",
        "--elem", "2*(0) + 1*(1)",
        "--nmax", "6",
        "--radius", "10",
    )
    assert code == 0
    assert "verdict=no evidence up to budget" in out
    assert "witness=none" in out
    assert "submodule_ratio=1/1" in out


@pytest.mark.parametrize(
    "field, cocycle, elem, witness",
    [
        ("gf5", "trivial", "1*(0,0) + 4*(0,1)", "1*(0,0) + 1*(0,1)"),
        ("q", "trivial", "1/2*(0,0) + 3*(1,0) + 1/2*(0,1) + 3*(1,1)",
         "1/1*(0,0) + -1/1*(0,1)"),
        ("gf4", "frobenius", "1*(0,0) + 0+1*w*(0,1)", "1+0*w*(0,0) + 0+1*w*(0,1)"),
    ],
    ids=["gf5", "q", "gf4-frobenius"],
)
def test_zerodiv_witnesses_on_zxz2(capsys, field, cocycle, elem, witness):
    code, out, _ = run_cli(
        capsys, "zerodiv", "--group", "ZxZ2", "--field", field, "--cocycle", cocycle,
        "--elem", elem, "--nmax", "4", "--radius", "3",
    )
    assert code == 0
    assert out.splitlines()[:2] == ["verdict=zero-divisor", f"witness={witness}"]


def test_tile_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "tile", "--group", "Z", "--target", "20", "--tiles", "2", "--eps", "1/10",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tiles_inside_and_eps_disjoint,pass,1/1"
    assert lines[1] == "classes_pairwise_disjoint,pass,0/1"
    assert lines[2] == "cover,pass,40/41"
    assert lines[3] == "1:(-18);(-13);(-8);(-3);(2);(7);(12);(17)"


def test_tile_checks_the_tiling_once(capsys, monkeypatch):
    """tile prints the report of the one check_quasi_tiling run that
    greedy_quasi_tile makes on its output."""
    from entrolen import tiling

    calls = []
    check = tiling.check_quasi_tiling

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(tiling, "check_quasi_tiling", counted)
    code, out, _ = run_cli(
        capsys, "tile", "--group", "Z^2", "--target", "6", "--tiles", "1,2", "--eps", "1/10"
    )
    assert code == 0 and len(calls) == 1
    assert out.splitlines() == [
        "tiles_inside_and_eps_disjoint,pass,23/25",
        "classes_pairwise_disjoint,pass,0/1",
        "cover,pass,157/169",
        "1:(-5,5);(0,0);(4,5);(5,-5)",
        "2:(-4,-4);(-4,1);(0,4);(1,-4);(4,1)",
    ]


def test_tile_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "tile", "--group", "Z", "--target", "2", "--tiles", "5", "--eps", "1/10",
    )
    assert code == 3
    assert out.startswith("construction,fail,")


def test_folner_ratios_csv(capsys):
    code, out, _ = run_cli(capsys, "folner-ratios", "--group", "Z", "--nmax", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,folner_size,boundary_size,ratio"
    assert lines[10] == "10,21,4,4/21"


def test_validate_cocycle(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate-cocycle",
        "--field", "gf4",
        "--group", "Z",
        "--sigma", "frobenius",
        "--rho", "trivial",
    )
    assert code == 0
    assert out.splitlines()[0] == "result=pass"
    code, out, _ = run_cli(
        capsys, "validate-cocycle", "--field", "gf3", "--group", "ZxZ2",
    )
    assert code == 0
    assert "result=pass" in out


def test_validation_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "entropy", "--group", "Z", "--field", "gf2")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(
        capsys,
        "entropy",
        "--group", "K5",
        "--field", "gf2",
        "--rank", "1",
        "--gen", "1*(0)|1",
        "--nmax", "3",
    )
    assert code == 2
    code, _, err = run_cli(
        capsys,
        "validate-cocycle", "--field", "gf3", "--group", "Z", "--sigma", "frobenius",
    )
    assert code == 2  # Frobenius needs a quadratic field


def test_presentation_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(
        "group=ZxZ2\nfield=gf3\nrank=1\n(0,0)|1|1;(0,1)|1|1\n", encoding="utf-8"
    )
    pres = parse_presentation(str(path))
    assert pres.rank == 1
    code, out, _ = run_cli(
        capsys,
        "entropy", "--presentation", str(path), "--nmax", "4",
    )
    assert code == 0
    assert all(line.endswith(",1/2") for line in out.splitlines()[1:])


def test_presentation_file_errors(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("group=Z\nfield=gf2\nrank=1\n(0)|0|1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "entropy", "--presentation", str(path), "--nmax", "3")
    assert code == 2
    assert f"{path}:4:" in err
    assert "zero coefficient" in err


def test_readme_presentation_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    _, _, rest = readme.partition("Presentation files are plain text:\n\n```\n")
    pres = parse_presentation_text(rest.partition("```")[0])
    assert (pres.group.name, pres.field.name, pres.cocycle.label) == ("ZxZ2", "gf3", "trivial")
    assert pres.rank == 1 and len(pres.generators) == 1


@pytest.mark.parametrize(
    "command, options, message",
    [
        ("entropy", {"field": "gf3"}, "--presentation never reads --field"),
        ("entropy", {"gen": "1*(0)|1"}, "--presentation never reads --gen"),
        ("entropy", {"rank": "5"}, "--presentation never reads --rank"),
        ("entropy", {"group": "Z^2"}, "--presentation never reads --group"),
        ("entropy", {"cocycle": "frobenius", "rank": "5"},
         "--presentation never reads --cocycle, --rank"),
        ("quotient-entropy", {"ngen": "1*(1)|1"}, "--npresentation never reads --ngen"),
        ("entropy", {"tiles": "5"}, "a run without --certify-eps never reads --tiles"),
        ("entropy", {"ncheck": "3"}, "a run without --certify-eps never reads --ncheck"),
    ],
    ids=["field", "gen", "rank", "group", "cocycle", "ngen", "tiles", "ncheck"],
)
def test_options_the_chosen_input_never_reads_are_rejected(
    tmp_path, capsys, command, options, message
):
    pres = tmp_path / "pres.txt"
    pres.write_text("group=Z\nfield=gf2\nrank=1\n(0)|1|1\n", encoding="utf-8")
    args = [command, "--presentation", str(pres), "--nmax", "2"]
    if command == "quotient-entropy":
        args += ["--npresentation", str(pres)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in options.items()), encoding="utf-8")
    flags = [a for k, v in options.items() for a in (f"--{k}", v)]
    for extra in (flags, ["--config", str(cfg)]):
        code, out, err = run_cli(capsys, *args, *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flag, prefix",
    [("--presentation", "cannot read"), ("--config", "cannot read config")],
)
def test_undecodable_files_are_named(tmp_path, capsys, flag, prefix):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"group=Z\xff\n")
    code, out, err = run_cli(capsys, "entropy", flag, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {prefix} {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "args, message",
    [
        (["entropy", "--gen", "1*(0)|1 + 1*(x)|1"],
         "--gen: col 11: non-integer coordinate in group element '(x)'"),
        (["entropy", "--gen", "1*(0)|1; 1*(1)|1 +  0*(2)|1"],
         "--gen: col 21: zero coefficient in term '0*(2)|1'"),
        (["quotient-entropy", "--gen", "1*(0)|1", "--ngen", "1*(0)|1 + 1*(1)"],
         "--ngen: col 11: term '1*(1)' needs a |coord suffix"),
        (["zerodiv", "--elem", " 1*(0) + 2*(y)", "--radius", "1"],
         "--elem: col 10: non-integer coordinate in group element '(y)'"),
    ],
    ids=["gen", "gen-second-generator", "ngen", "elem"],
)
def test_inline_term_errors_name_their_column(capsys, args, message):
    extra = ["--rank", "1"] if args[0] != "zerodiv" else []
    code, out, err = run_cli(
        capsys, *args, "--group", "Z", "--field", "gf3", "--nmax", "2", *extra
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_gf2_quotient_entropy_stdout(capsys):
    """Recorded before GF(2) windows moved to the int-row kernel."""
    code, out, _ = run_cli(
        capsys,
        "quotient-entropy",
        "--group", "Z^2",
        "--field", "gf2",
        "--rank", "1",
        "--gen", "1*(0,0)|1",
        "--ngen", "1*(0,0)|1 + 1*(1,0)|1 + 1*(0,1)|1",
        "--nmax", "6",
    )
    assert code == 0
    assert out == (
        "n,folner_size,trajectory_dim,ratio\n"
        "1,9,5,5/9\n"
        "2,25,9,9/25\n"
        "3,49,13,13/49\n"
        "4,81,17,17/81\n"
        "5,121,21,21/121\n"
        "6,169,25,25/169\n"
    )


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "group=Z\nfield=gf2\nrank=1\ngen=1*(0)|1\nnmax=3\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "entropy", "--config", str(cfg))
    assert code == 0
    assert len(out.splitlines()) == 4
    # flags override the file
    code, out, _ = run_cli(capsys, "entropy", "--config", str(cfg), "--nmax", "5")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=Z\nfield=gf2\nwibble=3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "entropy", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_outputs_are_deterministic(tmp_path, capsys):
    args = [
        "zerodiv",
        "--group", "ZxZ2",
        "--field", "gf3",
        "--elem", "1*(0,0) + 1*(0,1)",
        "--nmax", "5",
        "--radius", "4",
    ]
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")
    assert not out1.read_bytes().endswith(b"\n\n")


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("ENTROLEN_SEED", "12345")
    code, out, _ = run_cli(
        capsys, "validate-cocycle", "--field", "gf2", "--group", "Z",
    )
    assert code == 0
    assert "result=pass" in out
    monkeypatch.setenv("ENTROLEN_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys, "validate-cocycle", "--field", "gf2", "--group", "Z",
    )
    assert code == 2


def test_csv_ratio_parses_back_exactly(capsys):
    from fractions import Fraction

    from entrolen.crossed_product import parse_element, trivial_cocycle
    from entrolen.entropy import estimate
    from entrolen.exact_linalg import PrimeField
    from entrolen.folner import BoxTimesZ2
    from entrolen.groups import ZCrossZ2
    from entrolen.shift_modules import cyclic_presentation

    code, out, _ = run_cli(
        capsys,
        "entropy",
        "--group", "ZxZ2",
        "--field", "gf3",
        "--rank", "1",
        "--gen", "1*(0,0)|1 + 1*(0,1)|1",
        "--nmax", "5",
    )
    assert code == 0
    gf3 = PrimeField(3)
    group = ZCrossZ2()
    pres = cyclic_presentation(
        trivial_cocycle(gf3, group), parse_element(gf3, group, "1*(0,0) + 1*(0,1)")
    )
    est = estimate(pres, BoxTimesZ2(group), 5)
    for line, row in zip(out.splitlines()[1:], est.rows):
        assert Fraction(line.split(",")[3]) == row.ratio


def test_scheme_override(capsys):
    # word balls on Z give |F_n| = 2n+1 as well, but via a different path
    code, out, _ = run_cli(
        capsys,
        "folner-ratios", "--group", "Z", "--scheme", "balls", "--nmax", "4",
    )
    assert code == 0
    assert out.splitlines()[1].startswith("1,3,")


def test_zero_submodule_spelled_as_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "addition-check",
        "--group", "Z",
        "--field", "gf2",
        "--rank", "1",
        "--gen", "1*(0)|1",
        "--ngen", "0",
        "--nmax", "4",
        "--tol", "1/20",
    )
    assert code == 0
    assert "e_sub=0/1" in out
    assert "discrepancy=0/1" in out
    assert "pass=true" in out


def test_certification_accepts_eps_one_quarter(capsys):
    code, out, _ = run_cli(
        capsys,
        "entropy",
        "--group", "Heisenberg",
        "--field", "gf2",
        "--rank", "1",
        "--gen", "1*(0,0,0)|1",
        "--nmax", "2",
        "--certify-eps", "1/4",
        "--tiles", "1",
        "--ncheck", "4",
    )
    assert code == 0
    assert out.startswith("n,folner_size,trajectory_dim,ratio\n")
    assert "certified_upper=19/12" in out.splitlines()


def test_oversized_field_name_exit_2(capsys):
    code, out, err = run_cli(
        capsys,
        "entropy",
        "--group", "Z",
        "--field", "gf" + "9" * 400,
        "--rank", "1",
        "--gen", "1*(0)|1",
        "--nmax", "1",
    )
    assert code == 2
    assert out == ""
    assert "unsupported field size" in err


def test_config_values_obey_flag_choices(tmp_path, capsys):
    # argparse rejects the flag value itself
    with pytest.raises(SystemExit) as exc:
        main(["validate-cocycle", "--field", "gf4", "--group", "Z", "--sigma", "frobenious"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("field=gf4\ngroup=Z\nsigma=frobenious\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate-cocycle", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"{cfg}:3:" in err and "sigma" in err
    cfg.write_text("field=gf4\ngroup=Z\nsigma=frobenius\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate-cocycle", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "result=pass"


@pytest.mark.parametrize(
    "command,key",
    [
        ("tile", "field"),
        ("folner-ratios", "field"),
        ("tile", "cocycle"),
        ("folner-ratios", "cocycle"),
        ("validate-cocycle", "cocycle"),
        ("validate-cocycle", "scheme"),
        ("entropy", "seed"),
        ("quotient-entropy", "seed"),
        ("addition-check", "seed"),
        ("zerodiv", "seed"),
        ("tile", "seed"),
        ("folner-ratios", "seed"),
    ],
)
def test_flags_a_command_never_reads_are_rejected(tmp_path, capsys, command, key):
    with pytest.raises(SystemExit) as exc:
        main([command, "--" + key, "1"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "unknown key" in err


def test_env_seed_ignored_by_commands_without_seed(capsys, monkeypatch):
    monkeypatch.setenv("ENTROLEN_SEED", "not-a-number")
    code, out, _ = run_cli(capsys, "folner-ratios", "--group", "Z", "--nmax", "2")
    assert code == 0
    assert out.splitlines()[2] == "2,5,4,4/5"


def test_addition_check_nmax_zero_exit_2(capsys):
    code, out, err = run_cli(
        capsys,
        "addition-check",
        "--group", "Z",
        "--field", "gf2",
        "--rank", "1",
        "--gen", "1*(0)|1",
        "--ngen", "0",
        "--nmax", "0",
    )
    assert code == 2
    assert out == ""
    assert "error: n_max must be >= 1" in err


def test_out_to_unwritable_path_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        capsys, "folner-ratios", "--group", "Z", "--nmax", "2", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize(
    "args, message",
    [
        (["validate-cocycle", "--field", "gf3", "--budget", "-5"],
         "sample_budget must be >= 1"),
        (["folner-ratios", "--nmax", "-3"], "n_max must be >= 1"),
        (["folner-ratios", "--nmax", "3", "--cradius", "-1"], "radius must be >= 0"),
        (["entropy", "--field", "gf-4", "--rank", "1", "--gen", "1*(0)|1", "--nmax", "1"],
         "unsupported field size -4 (need p or p^2)"),
        (["tile", "--target", "-1", "--tiles", "2", "--eps", "1/10"],
         "--target must be >= 0"),
        (["tile", "--target", "20", "--tiles", "2,-1", "--eps", "1/10"],
         "--tiles must be >= 0"),
        (["entropy", "--field", "gf2", "--rank", "1", "--gen", "1*(0)|1", "--nmax", "2",
          "--certify-eps", "1/10", "--tiles", "1,-2"],
         "--tiles must be >= 0"),
    ],
    ids=["validate-budget", "folner-nmax", "folner-cradius", "field-negative",
         "tile-target", "tile-tiles", "entropy-tiles"],
)
def test_out_of_range_counts_exit_2(capsys, args, message):
    code, out, err = run_cli(capsys, args[0], "--group", "Z", *args[1:])
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize(
    "args",
    [
        ["folner-ratios", "--group", "Z^2", "--nmax", "1", "--cradius", "3000"],
        ["folner-ratios", "--group", "Z^3", "--nmax", "1", "--cshape", "ball",
         "--cradius", "200"],
        ["folner-ratios", "--group", "ZxZ2", "--nmax", "1", "--cradius", "1000000000"],
        ["folner-ratios", "--group", "ZxZ2", "--nmax", "1", "--cshape", "ball",
         "--cradius", "300000"],
        ["tile", "--group", "Z^2", "--target", "5000", "--tiles", "1", "--eps", "1/4"],
        ["tile", "--group", "Z^2", "--target", "3", "--tiles", "1,600", "--eps", "1/4"],
        ["tile", "--group", "ZxZ2", "--target", str(10**12), "--tiles", "1", "--eps", "1/4"],
        ["tile", "--group", "Z^2", "--scheme", "balls", "--target", "800", "--tiles", "1",
         "--eps", "1/4"],
    ],
    ids=["folner-z2-box", "folner-z3-ball", "folner-zxz2-box", "folner-zxz2-ball",
         "tile-target", "tile-tiles", "tile-zxz2-target", "tile-z2-ball"],
)
def test_oversized_windows_exit_2_at_once(capsys, args):
    """A window over cli.MAX_CELLS cells is counted, not built: exit 2 with
    one line, in well under a second."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "cells, over the limit of 1000000" in err


_Z2_RING = ["--group", "Z^2", "--field", "gf2"]
_Z2_GEN = [*_Z2_RING, "--rank", "1", "--gen", "1*(0,0)|1"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["entropy", *_Z2_GEN, "--nmax", "600"], "--nmax 600: window n=500 holds 1002001"),
        (["quotient-entropy", *_Z2_GEN, "--ngen", "1*(0,0)|1 + 1*(1,0)|1", "--nmax", "5000"],
         "--nmax 5000: window n=500 holds 1002001"),
        (["addition-check", "--group", "ZxZ2", "--field", "gf3", "--rank", "1",
          "--gen", "1*(0,0)|1", "--ngen", "1*(0,1)|1", "--nmax", str(10**9)],
         f"--nmax {10**9}: window n=250000 holds 1000002"),
        (["zerodiv", *_Z2_RING, "--scheme", "balls", "--elem", "1*(0,0)", "--nmax", "800",
          "--radius", "1"], "--nmax 800: window n=707 holds 1001113"),
    ],
    ids=["entropy", "quotient-entropy", "addition-check", "zerodiv"],
)
def test_window_commands_refuse_oversized_nmax(capsys, args, message):
    """The --nmax windows of every window command are counted before any
    is built: exit 2 at once with one line naming the first window over
    cli.MAX_CELLS cells, as folner-ratios does."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: {message} cells, over the limit of 1000000\n"


def test_window_commands_leave_heisenberg_balls_uncounted(capsys, monkeypatch):
    """A Heisenberg ball has no closed-form count, and counting it would
    grow every window twice, so a window command runs it unchecked."""
    from entrolen import cli

    monkeypatch.setattr(cli, "MAX_CELLS", 10)
    code, out, err = run_cli(
        capsys, "entropy", "--group", "Heisenberg", "--field", "gf2", "--rank", "1",
        "--gen", "1*(0,0,0)|1", "--nmax", "3",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "3,53,53,1/1"


@pytest.mark.parametrize(
    "group, scheme",
    [("Z", "boxes"), ("Z^2", "boxes"), ("Z^3", "boxes"), ("ZxZ2", "boxz2"),
     ("Z", "balls"), ("Z^2", "balls"), ("Z^3", "balls"), ("ZxZ2", "balls"),
     ("Heisenberg", "balls")],
)
def test_cell_count_is_the_window_size(monkeypatch, group, scheme):
    """The count, in closed form or shell by shell on the Heisenberg group,
    admits a window of exactly MAX_CELLS cells and refuses it at one cell
    less."""
    from entrolen import cli
    from entrolen.folner import scheme_from_name
    from entrolen.groups import group_from_name

    windows = scheme_from_name(scheme, group_from_name(group))
    for n in range(6):
        cells = len(windows.set_at(n))
        monkeypatch.setattr(cli, "MAX_CELLS", cells)
        assert len(cli._set_at(windows, n, "target")) == cells
        assert sum(map(len, islice(cli._windows(windows, n), n + 1))) == cells
        monkeypatch.setattr(cli, "MAX_CELLS", cells - 1)
        with pytest.raises(cli.CliError, match=f"--target {n} names (at least )?{cells} cells"):
            cli._set_at(windows, n, "target")
        with pytest.raises(cli.CliError, match=f"--nmax {n}: window n={n} holds {cells} cells"):
            list(islice(cli._windows(windows, n), n + 1))


@pytest.mark.parametrize("args", [
    ["folner-ratios", "--group", "Heisenberg", "--nmax", "1", "--cradius", "10"],
    ["tile", "--group", "Heisenberg", "--target", "10", "--tiles", "1", "--eps", "1/4"],
    ["tile", "--group", "Heisenberg", "--target", "2", "--tiles", "1,10", "--eps", "1/4"],
], ids=["folner-cradius", "tile-target", "tile-tiles"])
def test_oversized_heisenberg_balls_exit_2(capsys, monkeypatch, args):
    """ball(10) holds 4,309 cells; under a limit of 1,000 the growth stops
    at ball(7), the first ball past it, with one stderr line."""
    from entrolen import cli

    monkeypatch.setattr(cli, "MAX_CELLS", 1000)
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.endswith("names at least 1069 cells, over the limit of 1000\n")


def test_heisenberg_balls_under_the_limit_print_as_before(capsys, monkeypatch):
    from entrolen import cli

    monkeypatch.setattr(cli, "MAX_CELLS", 1000)
    code, out, _ = run_cli(
        capsys, "folner-ratios", "--group", "Heisenberg", "--nmax", "2", "--cradius", "4"
    )
    assert code == 0
    assert out == "n,folner_size,boundary_size,ratio\n1,5,299,299/5\n2,17,593,593/17\n"


FOLNER_GOLDEN = {
    "Heisenberg": (9, """n,folner_size,boundary_size,ratio
1,5,16,16/5
2,17,48,48/17
3,53,118,118/53
4,135,244,244/135
5,299,458,458/299
6,593,768,768/593
7,1069,1200,1200/1069
8,1793,1772,1772/1793
9,2845,2516,2516/2845
"""),
    "Z^3": (7, """n,folner_size,boundary_size,ratio
1,27,124,124/27
2,125,316,316/125
3,343,604,604/343
4,729,988,988/729
5,1331,1468,1468/1331
6,2197,2044,2044/2197
7,3375,2716,2716/3375
"""),
}


@pytest.mark.parametrize("group", sorted(FOLNER_GOLDEN))
def test_folner_ratios_golden(capsys, group):
    """The CSV byte for byte as the per-window set and mask path printed it."""
    n_max, expected = FOLNER_GOLDEN[group]
    code, out, err = run_cli(capsys, "folner-ratios", "--group", group, "--nmax", str(n_max))
    assert (code, out, err) == (0, expected, "")


def test_folner_ratios_on_sparse_windows_print_at_once(capsys):
    """L1 balls of Z^12 fill a vanishing share of their hull: the run
    measures each window on sets instead of building a table of 7^12
    cells, and prints as the per-window set path printed."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "folner-ratios", "--group", "Z^12", "--scheme", "balls",
                             "--nmax", "2")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        0, "n,folner_size,boundary_size,ratio\n1,25,312,312/25\n2,313,2600,2600/313\n", "")


def _counted_shells(monkeypatch):
    """Record the shells each groups.shells pass yields to the schemes."""
    from entrolen import folner

    passes, grow = [], folner.shells

    def shells(group, start):
        passes.append([])
        for shell in grow(group, start):
            passes[-1].append(len(shell))
            yield shell

    monkeypatch.setattr(folner, "shells", shells)
    return passes


@pytest.mark.parametrize("group, n_max, message", [
    ("Z^2", 30, "--nmax 30: window n=16 holds 1089 cells"),
    ("Heisenberg", 8, "--nmax 8: window n=7 holds 1069 cells"),
])
def test_folner_windows_over_the_limit_exit_2(capsys, monkeypatch, group, n_max, message):
    """Under a limit of 1,000 cells, F_30 = box(30) of Z^2 (3,721 cells)
    is refused in closed form, and the Heisenberg balls are counted as
    they grow: the refusal names the first window past the limit, ball(7),
    and no shell past it is grown."""
    from entrolen import cli

    monkeypatch.setattr(cli, "MAX_CELLS", 1000)
    passes = _counted_shells(monkeypatch)
    code, out, err = run_cli(capsys, "folner-ratios", "--group", group, "--nmax", str(n_max))
    assert code == 2 and out == ""
    assert err == f"error: {message}, over the limit of 1000\n"
    if group == "Heisenberg":  # C = ball(1), then the windows up to shell 7
        assert passes == [[1, 4], [1, 4, 12, 36, 82, 164, 294, 476]]


@pytest.mark.parametrize("group, n_max", [("Z^2", 15), ("Heisenberg", 6)])
def test_folner_windows_under_the_limit_print_as_before(capsys, monkeypatch, group, n_max):
    """F_15 of Z^2 (961 cells) and ball(6) (593 cells) pass a limit of
    1,000 cells and print the lines printed without the count; each
    Heisenberg shell is grown once."""
    from entrolen import cli

    monkeypatch.setattr(cli, "MAX_CELLS", 1000)
    passes = _counted_shells(monkeypatch)
    code, out, err = run_cli(capsys, "folner-ratios", "--group", group, "--nmax", str(n_max))
    assert code == 0 and err == ""
    lines = out.splitlines()
    if group == "Z^2":
        assert lines[1:] == [
            f"{n},{size},{16 * n + 8},{r.numerator}/{r.denominator}"
            for n in range(1, n_max + 1)
            for size in [(2 * n + 1) ** 2]
            for r in [Fraction(16 * n + 8, size)]
        ]
    else:
        assert out.splitlines() == FOLNER_GOLDEN["Heisenberg"][1].splitlines()[:n_max + 1]
        assert passes == [[1, 4], [1, 4, 12, 36, 82, 164, 294]]


P61 = 2**61 - 1


@pytest.mark.parametrize(
    "args",
    [
        ["entropy", "--field", f"gf{P61}",
         "--rank", "1", "--gen", "1*(0)|1", "--nmax", "2"],
        ["entropy", "--field", f"gf{P61 * P61}", "--cocycle", "frobenius",
         "--rank", "1", "--gen", "1*(0)|1", "--nmax", "2"],
        ["validate-cocycle", "--field", f"gf{P61}"],
        ["validate-cocycle", "--field", f"gf{P61 * P61}", "--sigma", "frobenius"],
    ],
    ids=["entropy-p", "entropy-p2", "validate-p", "validate-p2"],
)
def test_large_fields_are_built_quickly(capsys, args):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, args[0], "--group", "Z", *args[1:])
    assert code == 0
    assert out.splitlines()[-1] in ("2,5,5,1/1", "associativity_samples=12")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    ["folner-ratios", "--group", "Z^2", "--nmax", "1", "--cradius", "300"],
    ["tile", "--group", "Z^2", "--target", "400", "--tiles", "1", "--eps", "1/4"],
])
def test_out_of_memory_exits_3_with_one_line(capsys, monkeypatch, argv):
    """An input too large for memory ends in one error line and exit 3, not
    a MemoryError traceback; the window builder raises it here in place of
    allocating a box of a few hundred thousand cells, under cli.MAX_CELLS
    (a larger box exits 2 before it is built)."""

    def out_of_memory(self, n):
        raise MemoryError

    monkeypatch.setattr("entrolen.folner.Boxes.set_at", out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: out of memory; the input is too large\n"

import json
import os
import re
import resource
import shlex
import subprocess
import sys
from argparse import ArgumentParser, Namespace
from pathlib import Path

import pytest

import liecoh
from liecoh.cli import DEFAULT_SEED, _build_family, build_parser, main
from liecoh.closed_forms import diamond_b2, lambda_classes
from liecoh.errors import BadInput, UnknownFamily
from liecoh.cochain import cohomology_representatives
from liecoh.exterior import parse_form
from liecoh.lie_algebra import LieAlgebra, algebra_to_json, heisenberg
from liecoh.scalars import parse_scalar


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profile_table(capsys):
    code, out, err = run(capsys, "profile", "--family", "heisenberg", "--m", "2")
    assert code == 0 and err == ""
    assert out.startswith("heisenberg(m=2)  dim 5\n")
    assert "profile: 1 4 5 5 4 1" in out
    header = out.splitlines()[1]
    assert header.split() == ["degree", "cochain_dim", "rank_below", "rank", "betti"]


def test_profile_csv(capsys):
    code, out, _ = run(
        capsys, "profile", "--family", "heisenberg", "--m", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree,cochain_dim,rank_below,rank,betti"
    assert lines[2] == "1,5,0,1,4"
    assert len(lines) == 7


def test_profile_json_fields(capsys):
    code, out, _ = run(
        capsys, "profile", "--family", "diamond", "--lambda", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "profile"
    assert doc["dim"] == 4
    assert doc["betti"] == [1, 1, 0, 1, 1]
    assert doc["algebra"]["dim"] == 4
    assert doc["ranks"][-1] == 0


def test_betti_plain_number(capsys):
    code, out, _ = run(
        capsys, "betti", "--family", "diamond", "--lambda", "1", "--degree", "2"
    )
    assert code == 0
    assert out == "0\n"


def test_betti_csv_and_json(capsys):
    code, out, _ = run(
        capsys,
        "betti", "--family", "aff", "--degree", "1", "--format", "csv",
    )
    assert code == 0
    assert out == "degree,betti\n1,1\n"
    code, out, _ = run(
        capsys,
        "betti", "--family", "aff", "--degree", "1", "--format", "json",
    )
    assert json.loads(out)["betti"] == 1


def test_cocycles_aff(capsys):
    code, out, _ = run(
        capsys, "cocycles", "--family", "aff", "--degree", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "aff  degree 1  b_1 = 1"
    assert lines[1] == "  [X]"


def test_cocycles_heisenberg_uses_labels(capsys):
    code, out, _ = run(
        capsys, "cocycles", "--family", "heisenberg", "--m", "1", "--degree", "1"
    )
    assert code == 0
    assert "b_1 = 2" in out
    assert "[X1]" in out and "[X2]" in out and "[Z]" not in out


@pytest.mark.parametrize("labels", [["a^b", "c", "d"], ["x", "2", "y"], ["x", "x", "y"]])
def test_cocycles_fall_back_to_default_names_that_parse_back(capsys, tmp_path, labels):
    # h_3 with [e_1, e_2] = e_0: a label holding a caret or starting with a
    # digit would print e_0^e_1 as "a^b^c" or "x^2", which parse_form reads
    # as another form or not at all, so such labels give way to e0, e1, e2
    # as duplicate ones do
    g = LieAlgebra(3, {(1, 2): {0: 1}}, labels=labels)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(algebra_to_json(g)))
    code, out, _ = run(capsys, "cocycles", "--input", str(path), "--degree", "2")
    assert code == 0
    printed = [line.strip()[1:-1] for line in out.splitlines()[1:]]
    assert printed == ["e0^e1", "e0^e2"]
    assert [parse_form(text, 3) for text in printed] == cohomology_representatives(g, 2)


def test_export_matrix_golden(capsys):
    code, out, _ = run(
        capsys,
        "export-matrix", "--family", "heisenberg", "--m", "1", "--degree", "1",
    )
    assert code == 0
    assert out == "% 1 3 3\n2 0 -1\n"


def test_export_matrix_format_flag_is_ignored_gracefully(capsys):
    # coordinate text is the only sensible layout; the flag exists for
    # interface uniformity
    code, out, _ = run(
        capsys,
        "export-matrix", "--family", "heisenberg", "--m", "1", "--degree", "1",
        "--format", "json",
    )
    assert code == 0
    assert out.startswith("% 1 3 3")


def test_diamond_b2_with_classes(capsys):
    code, out, _ = run(
        capsys,
        "diamond-b2",
        "--lambda", "1", "--lambda", "1", "--lambda", "-1", "--lambda", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b2 = 9"
    assert lines[1] == "class 1: rep 1, p=2, q=1, n_1=3"
    assert lines[2] == "class 2: rep 2, p=1, q=0, n_2=1"


def test_diamond_b2_zero_parameter_takes_the_general_closed_form(capsys):
    code, out, _ = run(capsys, "diamond-b2", "--lambda", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b2 = 6"
    assert "zero parameter" in lines[1]
    code, out, _ = run(capsys, "diamond-b2", "--lambda", "1", "--lambda", "0")
    assert out.splitlines()[0] == "b2 = 3"


def test_diamond_b2_zero_parameter_on_a_large_diamond(capsys):
    # the dim-24 diamond on eleven nonzero parameters plus a zero abelian
    # plane: b_2 = b_2 + 2 b_1 + b_0 of the nonzero part, whose b_1 = b_0 = 1
    nonzero = ["1", "-1", "2", "i", "-i", "3", "1/2", "2", "1+i", "5", "-5"]
    argv = ["diamond-b2"]
    for value in nonzero + ["0"]:
        argv += ["--lambda", value]
    code, out, err = run(capsys, *argv)
    reduced = diamond_b2(lambda_classes([parse_scalar(v) for v in nonzero]))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"b2 = {reduced + 3}"


def test_diamond_b2_zero_parameter_answers_large_input(capsys):
    # a zero beside 91 nonzero parameters builds no cochain: one class of
    # size 91 gives 91**2 - 1, and the abelian plane adds 2 b_1 + b_0 = 3
    argv = ["diamond-b2", "--lambda", "0"]
    for _ in range(91):
        argv += ["--lambda", "1"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "b2 = 8283"
    # 91 singleton classes
    argv = ["diamond-b2", "--lambda", "0"]
    for p in range(91):
        argv += ["--lambda", str(p + 1)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "b2 = 93"


def test_diamond_b2_json(capsys):
    code, out, _ = run(
        capsys, "diamond-b2", "--lambda", "i", "--lambda", "-i", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["b2"] == 3
    assert doc["lambda"] == ["i", "-i"]
    assert doc["classes"][0]["size"] == 2


def test_lambda_values_with_leading_dash(capsys):
    # both spellings of a negative parameter must work
    code, out, _ = run(capsys, "diamond-b2", "--lambda", "-1/2", "--lambda", "1/2")
    assert code == 0 and out.splitlines()[0] == "b2 = 3"
    code, out, _ = run(capsys, "diamond-b2", "--lambda=-1/2", "--lambda=1/2")
    assert code == 0 and out.splitlines()[0] == "b2 = 3"


def run_fresh(capsys, *argv):
    # the same command line through parsers built anew for it
    liecoh.cli._parser.cache_clear()
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_keeps_no_appended_values(capsys):
    run(capsys, "diamond-b2", "--lambda", "1", "--lambda", "2")
    second = run(capsys, "diamond-b2", "--lambda", "3")
    assert second == run_fresh(capsys, "diamond-b2", "--lambda", "3")
    assert second[1].splitlines()[0] == "b2 = 0"


def test_reused_parser_recovers_from_a_usage_error(capsys):
    argv = ["profile", "--family", "heisenberg", "--m", "2"]
    run_fresh(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--family", "heisenberg", "--m", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert run(capsys, *argv) == run_fresh(capsys, *argv)


def test_reused_parser_reads_the_terminal_width_when_it_writes_help(capsys, monkeypatch):
    helps = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["betti", "--help"])
        helps[columns] = capsys.readouterr().out
        assert (0, helps[columns], "") == run_fresh(capsys, "betti", "--help")
    assert helps["60"] != helps["120"]


def test_each_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    liecoh.cli._parser.cache_clear()
    monkeypatch.setattr(ArgumentParser, "__init__", spy)
    argv = ["betti", "--family", "aff", "--degree", "1"]
    run(capsys, *argv)
    assert built == ["liecoh", "liecoh betti"]
    run(capsys, *argv)
    run(capsys, *argv)
    assert built == ["liecoh", "liecoh betti"]
    run(capsys, "profile", "--family", "aff")
    assert built[2:] == ["liecoh", "liecoh profile"]
    # every first token outside the table shares the one full tree
    assert build_parser("nope") is build_parser("-h") is build_parser()


def test_verify_default_sweep(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert f"(seed {DEFAULT_SEED})" in out
    assert out.splitlines()[-1].startswith("ok: ")


def test_verify_seed_precedence(capsys, monkeypatch):
    monkeypatch.setenv("LIECOH_SEED", "4242")
    code, out, _ = run(capsys, "verify")
    assert code == 0 and "(seed 4242)" in out
    code, out, _ = run(capsys, "verify", "--seed", "7")
    assert code == 0 and "(seed 7)" in out
    monkeypatch.setenv("LIECOH_SEED", "not-a-number")
    code, _, err = run(capsys, "verify")
    assert code == 2 and "LIECOH_SEED" in err


def test_verify_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "123")
    code2, out2, _ = run(capsys, "verify", "--seed", "123")
    assert code1 == code2 == 0
    assert out1 == out2


def test_profile_json_round_trips_through_verify(capsys, tmp_path):
    path = tmp_path / "profile.json"
    code, out, _ = run(
        capsys,
        "profile", "--family", "heisenberg", "--m", "2",
        "--format", "json", "--output", str(path),
    )
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert out.startswith("ok: ")


VERIFY_SUMMARIES = [
    "aff-ext n=2..10 ok\n",
    "heisenberg m=1..4 ok\n",
    "heisenberg-ext grids ok\n",
]
# closed form as the CLI reads it: (the one call made off by one, the
# groups that pass before it, the line that reports it at --seed 5)
SWEEP_FAULTS = {
    "betti_aff_ext": (
        lambda n, k: (n, k) == (4, 2), 0, "MISMATCH aff-ext(n=4) degree=2: engine=3 formula=4"
    ),
    "betti_heisenberg": (
        lambda m, k: (m, k) == (3, 3), 1, "MISMATCH heisenberg(m=3) degree=3: engine=14 formula=15"
    ),
    "betti_heisenberg_ext": (
        lambda m, n, k: (m, n, k) == (2, 7, 4),
        2,
        "MISMATCH heisenberg-ext(m=2, n=7) degree=4: engine=19 formula=20",
    ),
    # the 13th list drawn from seed 5
    "diamond_b2": (
        lambda spec: [str(v) for v in spec.entries] == ["3/2", "-4/3", "3/2"],
        3,
        "MISMATCH diamond(3/2,-4/3,3/2) degree=2: engine=4 formula=5",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_FAULTS))
def test_verify_sweep_stops_at_the_first_wrong_closed_form(capsys, monkeypatch, name):
    chosen, passed, line = SWEEP_FAULTS[name]
    real = getattr(liecoh.cli.closed_forms, name)
    monkeypatch.setattr(
        liecoh.cli.closed_forms, name, lambda *call: real(*call) + chosen(*call)
    )
    code, out, err = run(capsys, "verify", "--seed", "5")
    assert (code, out, err) == (1, "".join(VERIFY_SUMMARIES[:passed]) + line + "\n", "")


def test_verify_ranks_only_the_degrees_each_case_compares(capsys, monkeypatch):
    # a diamond case compares b_2 = C(n, 2) - r_1 - r_2, so it assembles d_1
    # and d_2 of the full complex and nothing else; the other groups compare
    # every degree and never assemble d_n, which has no rows
    assembled = []
    real = liecoh.cli.cochain.coboundary_matrix

    def spy(algebra, k, *rest):
        assembled.append((algebra.labels[0] == "X0", algebra.dim, k))
        return real(algebra, k, *rest)

    monkeypatch.setattr(liecoh.cli.cochain, "coboundary_matrix", spy)
    shown = {tuple(argv): text for argv, text in README_EXAMPLES}
    assert run(capsys, "verify", "--seed", "5") == (0, shown[("verify", "--seed", "5")], "")
    assert [k for diamond, _, k in assembled if diamond] == [1, 2] * 25
    assert all(k < n for _, n, k in assembled)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_ignores_the_format(capsys, fmt):
    shown = {tuple(argv): text for argv, text in README_EXAMPLES}
    expected = shown[("verify", "--seed", "5")]
    assert run(capsys, "verify", "--seed", "5", "--format", fmt) == (0, expected, "")


def test_verify_catches_tampered_profile(capsys, tmp_path):
    path = tmp_path / "profile.json"
    run(
        capsys,
        "profile", "--family", "heisenberg", "--m", "1",
        "--format", "json", "--output", str(path),
    )
    doc = json.loads(path.read_text())
    doc["betti"][2] += 1
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert out.startswith("MISMATCH")
    # tampering the rank vector alone is also caught
    doc = json.loads(path.read_text())
    doc["betti"][2] -= 1
    doc["ranks"][1] += 1
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 1 and "ranks" in out


def test_algebra_json_input(capsys, tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra_to_json(heisenberg(2))))
    code, out, _ = run(
        capsys, "betti", "--input", str(path), "--degree", "2"
    )
    assert code == 0 and out == "5\n"
    code, out, _ = run(capsys, "profile", "--input", str(path))
    assert code == 0 and "profile: 1 4 5 5 4 1" in out


def test_output_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run(capsys, "profile", "--family", "aff")
    path = tmp_path / "out.txt"
    code2, out2, _ = run(
        capsys, "profile", "--family", "aff", "--output", str(path)
    )
    assert code == code2 == 0
    assert out2 == ""
    assert path.read_text() == out


def test_error_exit_codes(capsys, tmp_path):
    # both sources
    code, _, err = run(
        capsys, "profile", "--family", "aff", "--input", "x.json"
    )
    assert code == 2 and "exactly one" in err
    # neither source
    code, _, err = run(capsys, "profile")
    assert code == 2 and "exactly one" in err
    # malformed scalar
    code, _, err = run(capsys, "diamond-b2", "--lambda", "1.5")
    assert code == 2 and "error:" in err
    # a malformed scalar is refused even where the family ignores --lambda
    code, out, err = run(capsys, "profile", "--family", "heisenberg", "--m", "1", "--lambda", "1.5")
    assert (code, out) == (2, "") and err == "error: cannot parse scalar '1.5'\n"
    # digits are ASCII only, so ARABIC-INDIC TWO is not a parameter
    code, out, err = run(capsys, "betti", "--family", "diamond", "--lambda", "\u0662", "--degree", "2")
    assert (code, out) == (2, "") and err == "error: cannot parse scalar '\u0662'\n"
    code, out, err = run(capsys, "diamond-b2", "--lambda", "1/0")
    assert (code, out) == (2, "") and err == "error: zero denominator in scalar '1/0'\n"
    # missing family parameter
    code, _, err = run(capsys, "profile", "--family", "heisenberg")
    assert code == 2 and "--m" in err
    # missing file
    code, _, err = run(capsys, "betti", "--input", str(tmp_path / "no.json"), "--degree", "0")
    assert code == 2 and "cannot read" in err
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "betti", "--input", str(bad), "--degree", "0")
    assert code == 2 and "not valid JSON" in err
    # structurally bad algebra
    bad.write_text(json.dumps({"dim": 2, "brackets": [{"i": 0, "j": 5, "coeffs": {}}]}))
    code, _, err = run(capsys, "profile", "--input", str(bad))
    assert code == 2
    # degree out of range
    code, _, err = run(capsys, "betti", "--family", "aff", "--degree", "7")
    assert code == 2
    # verify --input on a non-profile document
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"dim": 2}))
    code, _, err = run(capsys, "verify", "--input", str(other))
    assert code == 2 and "profile document" in err
    # unwritable output path
    code, _, err = run(
        capsys,
        "profile", "--family", "aff",
        "--output", str(tmp_path / "missing" / "out.txt"),
    )
    assert code == 2 and "cannot write" in err


def test_unknown_family_guard():
    with pytest.raises(UnknownFamily):
        _build_family(Namespace(family="nonsense"), [])
    # a diamond with no --lambda
    with pytest.raises(BadInput):
        _build_family(Namespace(family="diamond"), [])


def test_aff_ext_dimension_guard(capsys):
    code, _, err = run(capsys, "profile", "--family", "aff-ext", "--n", "1")
    assert code == 2 and "aff-ext" in err
    code, out, _ = run(capsys, "profile", "--family", "aff-ext", "--n", "2")
    assert code == 0 and "profile: 1 1 0" in out


def test_heisenberg_ext_family_bounds(capsys):
    code, _, err = run(
        capsys, "profile", "--family", "heisenberg-ext", "--m", "1", "--n", "2"
    )
    assert code == 2
    code, out, _ = run(
        capsys, "profile", "--family", "heisenberg-ext", "--m", "1", "--n", "5"
    )
    assert code == 0 and "profile: 1 4 7 7 4 1" in out


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 2, "brackets": [{"j": 1, "coeffs": {"0": "1"}}]},
        {"dim": 2, "brackets": {"0": {"1": "1"}}},
        {"dim": 2, "labels": 5},
        {"dim": True},
        # int() reads these four as the indices 10, 2, 2 and 2
        {"dim": 11, "brackets": [{"i": 0, "j": 1, "coeffs": {"1_0": "1"}}]},
        {"dim": 11, "brackets": [{"i": 0, "j": 1, "coeffs": {"\u0662": "1"}}]},
        {"dim": 11, "brackets": [{"i": 0, "j": 1, "coeffs": {" 2 ": "1"}}]},
        {"dim": 11, "brackets": [{"i": 0, "j": 1, "coeffs": {"+2": "1"}}]},
    ],
    ids=[
        "bracket-without-i", "brackets-object", "labels-number", "dim-true",
        "index-underscore", "index-arabic-indic-digit", "index-spaces", "index-plus",
    ],
)
def test_malformed_algebra_json_is_bad_input(capsys, tmp_path, doc):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "betti", "--input", str(path), "--degree", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("content", [
    b'\xff\xfe{"dim": 2}',
    b"[" * 200000 + b"]" * 200000,
    b'{"dim": ' + b"1" * 5000 + b"}",
], ids=["invalid-utf8", "nested-200000-deep", "number-5000-digits"])
@pytest.mark.parametrize("command", [["betti", "--degree", "1"], ["verify"]], ids=["betti", "verify"])
def test_unreadable_json_file_is_bad_input(capsys, tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *command, "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "coeff",
    [{"re": [1]}, "1.5", "1e3", {"re": 1.5}, "1/0"],
    ids=["list-part", "decimal-string", "exponent-string", "float-part", "zero-denominator"],
)
def test_coefficient_outside_the_scalar_grammar_is_bad_input(capsys, tmp_path, coeff):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": coeff}}]}))
    code, out, err = run(capsys, "betti", "--input", str(path), "--degree", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "vectors",
    [{"betti": 5}, {"betti": [1, 2, 1], "ranks": 7}, {"betti": [1, True, 1]}],
    ids=["betti-number", "ranks-number", "betti-bool"],
)
def test_verify_rejects_stored_vectors_that_are_not_integer_lists(capsys, tmp_path, vectors):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"algebra": {"dim": 2}, **vectors}))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "list of integers" in err


def _limit_address_space():
    # far above what a refused run needs, far below anything sized by 10**9
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


HUGE = {"dim": 10**9}
# fails the Jacobi identity, whose residual is a vector of length dim
HUGE_NOT_LIE = {"dim": 10**8, "brackets": [
    {"i": 0, "j": 1, "coeffs": {"2": "1"}}, {"i": 0, "j": 2, "coeffs": {"0": "1"}},
]}


@pytest.mark.parametrize("command, document", [
    (["betti", "--degree", "1"], HUGE),
    (["betti", "--degree", "500000000"], HUGE),
    (["profile"], HUGE),
    (["cocycles", "--degree", "2"], HUGE),
    (["export-matrix", "--degree", "0"], HUGE),
    (["verify"], {"algebra": HUGE, "betti": [1]}),
    (["betti", "--degree", "1"], HUGE_NOT_LIE),
    (["betti", "--family", "abelian", "--d", "100000000", "--degree", "1"], None),
    (["betti", "--family", "heisenberg", "--m", "100000000", "--degree", "1"], None),
    (["betti", "--family", "heisenberg-ext", "--m", "1", "--n", "100000000", "--degree", "1"],
     None),
    (["profile", "--family", "aff-ext", "--n", "100000000"], None),
], ids=["betti", "betti-middle-degree", "profile", "cocycles", "export-matrix", "verify",
        "jacobi-violation", "abelian", "heisenberg", "heisenberg-ext", "aff-ext"])
def test_huge_dimension_is_refused_up_front(tmp_path, command, document):
    # the dimension an input or a family declares is checked before any
    # algebra, label or residual of that size is built
    if document is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        command = [*command, "--input", str(path)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liecoh.__file__)))
    result = subprocess.run(
        [sys.executable, "-m", "liecoh.cli", *command],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=_limit_address_space,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error:") and "Traceback" not in result.stderr


def test_cochain_size_guard_boundary(capsys, tmp_path):
    # C(165, 2) = 13530 rows is the largest space the benchmark builds;
    # C(1415, 2) = 1000405 is the first degree-2 space over the limit
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": 165}))
    assert run(capsys, "betti", "--input", str(path), "--degree", "1") == (0, "165\n", "")
    path.write_text(json.dumps({"dim": 1415}))
    code, out, err = run(capsys, "betti", "--input", str(path), "--degree", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: degree-2 cochains") and "1000000" in err


def _readme_examples():
    # (argv, shown stdout) for every `$ liecoh` line of README.md, the
    # output being the lines up to the fence that closes its block
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    found = re.findall(r"^\$ liecoh ([^\n]*)\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    return [(shlex.split(command), shown) for command, shown in found]


README_EXAMPLES = _readme_examples()


def test_readme_has_command_examples():
    # the parse found every example, not none
    assert len(README_EXAMPLES) >= 7


@pytest.mark.parametrize(
    "argv, shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example_output_is_current(capsys, argv, shown):
    assert run(capsys, *argv) == (0, shown, "")

"""Seeded fuzz of the command line's input handling.

Mutated argv token lists and mutated JSON algebra and profile documents
go through ``cli.main`` in process.  Whatever the input, the exit code
is 0, 1 or 2 (argparse's ``SystemExit(2)`` counts as 2), nothing but
``SystemExit`` escapes, and stderr holds no traceback.  Every algebra
that ``profile --format json`` accepts round-trips through ``verify
--input``.  The parser that ``main`` builds for one subcommand parses
every mutated argv as the parser of all six does.  Both are the parsers
``main`` builds once per process and reuses, so each comparison after
the first also runs a parser that earlier argv lists have been through.
"""

import copy
import json
import random
import re

import pytest

from liecoh.cli import FAMILIES, _absorb_lambda_values, build_parser, main
from liecoh.lie_algebra import (
    abelian,
    aff_r,
    algebra_to_json,
    diamond_algebra,
    direct_sum,
    heisenberg,
)
from liecoh.scalars import Scalar

SEEDS = (1, 2, 3, 4)
TRIALS = 30

BASES = [
    algebra_to_json(algebra)
    for algebra in (
        aff_r(),
        heisenberg(1),
        diamond_algebra([1, Scalar(0, 1)]),
        direct_sum(aff_r(), abelian(1)),
    )
]

# replacements for any node of a JSON document
JUNK = [
    None, True, False, 0, 1, -1, 2, 5, 10**9, 2.5, "", "x", "1", "-1/2+i", "1/0",
    "9" * 5000, [], {}, [0], {"0": "1"}, {"re": "1/2", "im": "-3"},
]

OPTIONS = [
    "--family", "--input", "--m", "--d", "--n", "--lambda", "--degree", "--format",
    "--output", "--seed", "-h", "--", "--fam", "-x",
]
VALUES = [
    *FAMILIES, "nonsense", "-1", "0", "1", "2", "3", "100000000", "i", "-i", "1/2+3/4i",
    "1.5", "1/0", "", "table", "json", "csv", "xml",
    "algebra.json", "profile.json", "missing.json", ".", "out.txt", "missing/out.txt",
]
SUBCOMMANDS = ["betti", "profile", "cocycles", "export-matrix", "diamond-b2", "verify"]
COMMANDS = [*SUBCOMMANDS, "nope"]
# valid command lines, each the start of a run of token mutations
TEMPLATES = [
    ["betti", "--family", "heisenberg", "--m", "1", "--degree", "1"],
    ["profile", "--family", "diamond", "--lambda", "1", "--lambda", "-i"],
    ["cocycles", "--input", "algebra.json", "--degree", "2"],
    ["export-matrix", "--family", "aff-ext", "--n", "3", "--degree", "1"],
    ["diamond-b2", "--lambda", "1", "--lambda", "0", "--format", "json"],
    ["verify", "--input", "profile.json"],
    ["profile", "--family", "abelian", "--d", "3", "--format", "csv"],
    ["betti", "--family", "heisenberg-ext", "--m", "1", "--n", "4", "--degree", "2",
     "--output", "out.txt"],
]


def call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        # argparse: 2 after a usage error, 0 after --help
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any other escape is the failure
        pytest.fail(f"{argv!r} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    return code, out, err


def _slots(node, out):
    # every (container, key) of a JSON document, depth first
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def mutate(rng, doc):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        slots = _slots(doc, []) if isinstance(doc, (dict, list)) else []
        if not slots or rng.random() < 0.05:
            return rng.choice(JUNK)
        node, key = rng.choice(slots)
        roll = rng.random()
        if roll < 0.6:
            node[key] = copy.deepcopy(rng.choice(JUNK))
        elif roll < 0.85:
            del node[key]
        else:
            # a value from elsewhere in the document, in the wrong place
            other, other_key = rng.choice(slots)
            node[key] = copy.deepcopy(other[other_key])
    return doc


def serialize(rng, doc):
    text = json.dumps(doc)
    roll = rng.random()
    if roll < 0.05:
        return text[: rng.randrange(len(text) + 1)]
    if roll < 0.1:
        # the first JSON number made longer than the interpreter's
        # integer digit limit
        return re.sub(r'(": )(?=\d)', r"\g<1>" + "1" * 5000, text, count=1)
    return text


def random_command(rng):
    command = rng.choice([["profile"], ["betti"], ["cocycles"], ["export-matrix"]])
    if command[0] != "profile":
        command += ["--degree", str(rng.randint(-1, 4))]
    return command + ["--format", rng.choice(["table", "json", "csv"])]


def random_argv(rng):
    argv = list(rng.choice(TEMPLATES))
    for _ in range(rng.randint(0, 2)):
        roll, i = rng.random(), rng.randrange(len(argv))
        kind = COMMANDS if i == 0 else OPTIONS if argv[i] in OPTIONS else VALUES
        if roll < 0.4:
            # another token of the same kind: command, option or value
            argv[i] = rng.choice(kind)
        elif roll < 0.65:
            argv += [rng.choice(OPTIONS), rng.choice(VALUES)]
        elif roll < 0.85:
            # an option goes together with its value
            del argv[i : i + 2 if kind is OPTIONS else i + 1]
        else:
            argv.insert(i, rng.choice(rng.choice((COMMANDS, OPTIONS, VALUES))))
    if argv[:1] == ["verify"] and "--input" not in argv:
        # keep the built-in sweep, a quarter second each, out of the loop
        argv += ["--input", "profile.json"]
    return argv


def round_trips(capsys, algebra_path):
    code, out, _ = call(capsys, ["profile", "--input", algebra_path, "--format", "json"])
    if code != 0:
        return False
    with open("emitted.json", "w", encoding="utf-8") as handle:
        handle.write(out)
    code, out, err = call(capsys, ["verify", "--input", "emitted.json"])
    assert (code, err) == (0, ""), out
    assert out.startswith("ok: emitted.json matches recomputation")
    return True


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_algebra_documents(seed, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(seed)
    trips = 0
    for _ in range(TRIALS):
        doc = mutate(rng, rng.choice(BASES))
        (tmp_path / "algebra.json").write_text(serialize(rng, doc), encoding="utf-8")
        call(capsys, [*random_command(rng), "--input", "algebra.json"])
        trips += round_trips(capsys, "algebra.json")
    # the mutations leave some documents valid, so the round trip ran
    assert trips > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_profile_documents(seed, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(seed)
    profiles = []
    for base in BASES:
        (tmp_path / "algebra.json").write_text(json.dumps(base), encoding="utf-8")
        assert round_trips(capsys, "algebra.json")
        profiles.append(json.loads((tmp_path / "emitted.json").read_text(encoding="utf-8")))
    for _ in range(TRIALS):
        doc = mutate(rng, rng.choice(profiles))
        (tmp_path / "profile.json").write_text(serialize(rng, doc), encoding="utf-8")
        call(capsys, ["verify", "--input", "profile.json"])


@pytest.mark.parametrize("seed", SEEDS)
def test_random_argv(seed, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "algebra.json").write_text(json.dumps(BASES[1]), encoding="utf-8")
    code, out, _ = call(capsys, ["profile", "--input", "algebra.json", "--format", "json"])
    assert code == 0
    (tmp_path / "profile.json").write_text(out, encoding="utf-8")
    rng = random.Random(seed)
    for _ in range(TRIALS):
        call(capsys, random_argv(rng))


def parse(capsys, parser, argv):
    # the namespace, or the exit code and output of a usage error or help
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("seed", SEEDS)
def test_one_subcommand_parser_agrees_with_the_full_tree(seed, capsys):
    rng = random.Random(seed)
    checked = 0
    for _ in range(5 * TRIALS):
        argv = _absorb_lambda_values(random_argv(rng))
        if argv[:1] and argv[0] in SUBCOMMANDS:
            full = parse(capsys, build_parser(), argv)
            assert parse(capsys, build_parser(argv[0]), argv) == full, argv
            checked += 1
    assert checked > 2 * TRIALS

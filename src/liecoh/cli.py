"""Command-line interface.

Subcommands:

* ``betti``         one Betti number of a chosen algebra
* ``profile``       the full Betti profile with rank diagnostics
* ``cocycles``      representatives of the degree-k cohomology classes
* ``export-matrix`` one coboundary matrix in coordinate-list text form
* ``diamond-b2``    the degree-2 count for diamond parameters
* ``verify``        sweep the closed formulas against the exact engine:
                    the Heisenberg, affine and diamond families against
                    every coboundary matrix of the whole complex

Algebras come either from a built-in family (``--family`` plus its
parameters) or from a JSON file (``--input``); exactly one of the two.
Output is ``table`` (default), ``json`` or ``csv`` and goes to stdout
or ``--output``.  ``profile --format json`` documents are accepted back
by ``verify --input`` for an end-to-end recomputation check.

Each option is declared once, in a table of flags and ``add_argument``
keywords; ``main`` builds only the subcommand its first argument names
(all six for help and usage errors), and its handler takes the parsed
namespace and returns (text, exit code).  A ``--lambda`` value that does
not parse is refused by every command that accepts the option, whether
or not the chosen algebra uses it.

Exit codes: 0 success, 1 verification found a counterexample, 2 bad
input or I/O trouble.  A command whose cochain spaces would exceed
MAX_COCHAIN_DIM monomials is bad input, refused before it builds them.
The verify sweep's random seed comes from ``--seed``, else the
LIECOH_SEED environment variable, else a fixed default, so runs are
reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction
from math import comb

from . import closed_forms, cochain, exterior, lie_algebra
from .errors import BadInput, IOFailure, LieCohError, UnknownFamily, ZeroLambda
from .scalars import Scalar, parse_scalar

__all__ = ["main"]

DEFAULT_SEED = 171717
# the largest cochain space a run may touch; the biggest one the tests
# and the benchmark use is C(165, 2) = 13530
MAX_COCHAIN_DIM = 10**6
FAMILIES = ("aff", "abelian", "heisenberg", "aff-ext", "heisenberg-ext", "diamond")


def _lambdas(args: argparse.Namespace) -> list[Scalar]:
    """The ``--lambda`` values as scalars; BadInput on the first malformed one."""
    try:
        return [parse_scalar(text) for text in args.lam or ()]
    except ValueError as err:
        raise BadInput(str(err)) from None


def _need(value, flag: str, family: str):
    if value is None:
        raise BadInput(f"family {family!r} needs {flag}")
    return value


def _build_family(args: argparse.Namespace, lam: list[Scalar]):
    """(dimension, builder, title) of a built-in family, with lam the
    parsed ``--lambda`` values.  The dimension comes from the parameters
    alone, so it can be checked before the builder makes the algebra."""
    name = args.family
    if name == "aff":
        return 2, lie_algebra.aff_r, "aff"
    if name == "abelian":
        d = _need(args.d, "--d", name)
        return d, lambda: lie_algebra.abelian(d), f"abelian(d={d})"
    if name == "heisenberg":
        m = _need(args.m, "--m", name)
        return 2 * m + 1, lambda: lie_algebra.heisenberg(m), f"heisenberg(m={m})"
    if name == "aff-ext":
        n = _need(args.n, "--n", name)
        if n < 2:
            raise BadInput("aff-ext needs --n >= 2")

        def build():
            return lie_algebra.direct_sum(lie_algebra.aff_r(), lie_algebra.abelian(n - 2))

        return n, build, f"aff-ext(n={n})"
    if name == "heisenberg-ext":
        m = _need(args.m, "--m", name)
        n = _need(args.n, "--n", name)
        if n < 2 * m + 1:
            raise BadInput("heisenberg-ext needs --n >= 2m+1")

        def build():
            return lie_algebra.direct_sum(
                lie_algebra.heisenberg(m), lie_algebra.abelian(n - 2 * m - 1)
            )

        return n, build, f"heisenberg-ext(m={m}, n={n})"
    if name == "diamond":
        if not lam:
            raise BadInput("family 'diamond' needs at least one --lambda")
        title = "diamond(" + ",".join(str(v) for v in lam) + ")"
        return 2 * len(lam) + 2, lambda: lie_algebra.diamond_algebra(lam), title
    raise UnknownFamily(f"unknown family {name!r}; choose from {', '.join(FAMILIES)}")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise IOFailure(f"cannot read {path}: {err}") from None
    except ValueError as err:
        # JSONDecodeError, UnicodeDecodeError and a number over the
        # interpreter's integer digit limit are all ValueErrors
        raise BadInput(f"{path} is not valid JSON: {err}") from None
    except RecursionError:
        raise BadInput(f"{path} is nested too deeply to read") from None


def _load_algebra(args: argparse.Namespace, degrees) -> tuple[lie_algebra.LieAlgebra, str]:
    """The algebra chosen by exactly one of ``--family`` and ``--input``,
    and its title, after ``_check_size`` has passed the dimension n it
    declares at ``degrees(n)``.  The ``--lambda`` values are checked
    first, whether or not the family uses them."""
    lam = _lambdas(args)
    if (args.family is None) == (args.input is None):
        raise BadInput("choose exactly one algebra source: --family or --input")
    if args.family is not None:
        n, build, title = _build_family(args, lam)
        _check_size(n, degrees(n))
        return build(), title
    path = args.input
    return _algebra_from_doc(path, _read_json(path), degrees), f"algebra from {path}"


def _algebra_from_doc(path: str, data, degrees) -> lie_algebra.LieAlgebra:
    # a 'dim' that is not an integer is left to algebra_from_json to name
    if isinstance(data, dict) and type(data.get("dim")) is int:
        _check_size(data["dim"], degrees(data["dim"]))
    try:
        return lie_algebra.algebra_from_json(data)
    except (LieCohError, ValueError) as err:
        raise BadInput(f"{path}: {err}") from None


def _check_size(n: int, degrees) -> None:
    """Refuse degrees whose cochain space has over MAX_COCHAIN_DIM monomials
    before anything sized by n or C(n, k) is built; degrees outside 0..n
    are left to the engine, which names them."""
    for k in degrees:
        j = min(k, n - k)
        # C(n, j) >= C(2j, j) > MAX_COCHAIN_DIM once j > 20, so no huge
        # binomial is ever formed
        if j >= 0 and (j > 20 or comb(n, j) > MAX_COCHAIN_DIM):
            raise BadInput(
                f"degree-{k} cochains of a dimension-{n} algebra number more than "
                f"{MAX_COCHAIN_DIM} monomials; refusing to build them"
            )


def _middle_degree(n: int) -> list[int]:
    # the largest cochain space of a whole profile
    return [n // 2]


def _names_for(algebra: lie_algebra.LieAlgebra) -> list[str]:
    if algebra.labels is not None and len(set(algebra.labels)) == algebra.dim:
        return list(algebra.labels)
    return exterior.default_names(algebra.dim)


def _profile_rows(profile: cochain.BettiProfile):
    return [
        (k, closed_forms.binom(profile.n, k), profile.images[k], profile.ranks[k], profile.b[k])
        for k in range(profile.n + 1)
    ]


def _render_table(headers, rows) -> str:
    table = [tuple(str(v) for v in row) for row in rows]
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in table)) if table else len(headers[c])
        for c in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


_PROFILE_HEADERS = ("degree", "cochain_dim", "rank_below", "rank", "betti")


def _cmd_profile(args: argparse.Namespace) -> tuple[str, int]:
    algebra, title = _load_algebra(args, _middle_degree)
    profile = cochain.betti_profile(algebra)
    rows = _profile_rows(profile)
    if args.fmt == "json":
        doc = {
            "command": "profile",
            "algebra": lie_algebra.algebra_to_json(algebra),
            "dim": profile.n,
            "betti": list(profile.b),
            "ranks": list(profile.ranks),
            "kernels": list(profile.kernels),
            "images": list(profile.images),
        }
        return json.dumps(doc, indent=2) + "\n", 0
    if args.fmt == "csv":
        return _csv_text(_PROFILE_HEADERS, rows), 0
    body = _render_table(_PROFILE_HEADERS, rows)
    profile_line = "profile: " + " ".join(str(v) for v in profile.b)
    return f"{title}  dim {profile.n}\n{body}\n{profile_line}\n", 0


def _cmd_betti(args: argparse.Namespace) -> tuple[str, int]:
    k = args.degree
    algebra, title = _load_algebra(args, lambda n: [k - 1, k, k + 1])
    value = cochain.betti(algebra, k)
    if args.fmt == "json":
        doc = {
            "command": "betti",
            "algebra": lie_algebra.algebra_to_json(algebra),
            "degree": k,
            "betti": value,
        }
        return json.dumps(doc, indent=2) + "\n", 0
    if args.fmt == "csv":
        return _csv_text(("degree", "betti"), [(k, value)]), 0
    return f"{value}\n", 0


def _cmd_cocycles(args: argparse.Namespace) -> tuple[str, int]:
    k = args.degree
    algebra, title = _load_algebra(args, lambda n: [k - 1, k, k + 1])
    representatives = cochain.cohomology_representatives(algebra, k)
    names = _names_for(algebra)
    rendered = [exterior.format_form(w, names) for w in representatives]
    if args.fmt == "json":
        doc = {
            "command": "cocycles",
            "algebra": lie_algebra.algebra_to_json(algebra),
            "degree": k,
            "betti": len(rendered),
            "representatives": rendered,
        }
        return json.dumps(doc, indent=2) + "\n", 0
    if args.fmt == "csv":
        return _csv_text(("index", "representative"), list(enumerate(rendered))), 0
    lines = [f"{title}  degree {k}  b_{k} = {len(rendered)}"]
    for text in rendered:
        lines.append(f"  [{text}]")
    return "\n".join(lines) + "\n", 0


def _cmd_export_matrix(args: argparse.Namespace) -> tuple[str, int]:
    k = args.degree
    algebra, _ = _load_algebra(args, lambda n: [k, k + 1])
    matrix = cochain.coboundary_matrix(algebra, k)
    return matrix.to_coordinate_text(), 0


def _cmd_diamond_b2(args: argparse.Namespace) -> tuple[str, int]:
    entries = _lambdas(args)
    if not entries:
        raise BadInput("diamond-b2 needs at least one --lambda")
    try:
        spec = closed_forms.lambda_classes(entries)
        value = closed_forms.diamond_b2(spec)
        classes = [
            {
                "rep": str(cls.rep),
                "p": cls.p,
                "q": cls.q,
                "size": cls.size,
                "members": list(cls.members),
            }
            for cls in spec.classes
        ]
    except ZeroLambda:
        spec = None
        value = closed_forms.diamond_b2_general(entries)
        classes = None
    if args.fmt == "json":
        doc = {
            "command": "diamond-b2",
            "lambda": [str(v) for v in entries],
            "b2": value,
        }
        if classes is not None:
            doc["classes"] = classes
        return json.dumps(doc, indent=2) + "\n", 0
    if args.fmt == "csv":
        return _csv_text(("b2",), [(value,)]), 0
    lines = [f"b2 = {value}"]
    if spec is not None:
        for idx, cls in enumerate(spec.classes, start=1):
            lines.append(
                f"class {idx}: rep {cls.rep}, p={cls.p}, q={cls.q}, n_{idx}={cls.size}"
            )
    else:
        dropped = sum(1 for v in entries if not v)
        lines.append(
            f"{dropped} zero parameter(s) split off an abelian summand; "
            "count by Kunneth over that summand"
        )
    return "\n".join(lines) + "\n", 0


def _random_lambda(rng: random.Random) -> list[Scalar]:
    n = rng.randint(1, 4)
    out = []
    for _ in range(n):
        while True:
            re = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
            im = Fraction(0)
            if rng.random() < 0.25:
                im = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            value = Scalar(re, im)
            if value:
                out.append(value)
                break
    return out


def _verify_profile_doc(path: str) -> tuple[str, int]:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "algebra" not in doc or "betti" not in doc:
        raise BadInput(f"{path} is not a profile document (needs 'algebra' and 'betti')")
    for key in ("betti", "ranks"):
        # type() rather than isinstance, since JSON true is a bool and so an int
        if key in doc and not (
            isinstance(doc[key], list) and all(type(v) is int for v in doc[key])
        ):
            raise BadInput(f"{path}: {key!r} must be a list of integers, got {doc[key]!r}")
    algebra = _algebra_from_doc(path, doc["algebra"], _middle_degree)
    profile = cochain.betti_profile(algebra)
    stored = doc["betti"]
    if stored != list(profile.b):
        return (
            f"MISMATCH {path}: stored betti {stored} but recomputed {list(profile.b)}\n",
            1,
        )
    if "ranks" in doc and doc["ranks"] != list(profile.ranks):
        return (
            f"MISMATCH {path}: stored ranks {doc['ranks']} but recomputed "
            f"{list(profile.ranks)}\n",
            1,
        )
    return f"ok: {path} matches recomputation (dim {profile.n})\n", 0


def _full_complex_profile(algebra: lie_algebra.LieAlgebra) -> cochain.BettiProfile:
    # every degree of the whole complex eliminated: betti_profile takes
    # these families, diamonds included, from closed forms or weight
    # counts, which would check formulas against formulas
    n = algebra.dim
    return cochain.BettiProfile.from_ranks(
        n, [cochain.rank_exact(cochain.coboundary_matrix(algebra, k)) for k in range(n + 1)]
    )


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.input is not None:
        return _verify_profile_doc(args.input)
    seed = args.seed
    if seed is None:
        env = os.environ.get("LIECOH_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise BadInput(f"LIECOH_SEED must be an integer, got {env!r}") from None
        else:
            seed = DEFAULT_SEED
    lines = []
    checks = 0

    def mismatch(label: str, degree: int, engine: int, formula: int) -> tuple[str, int]:
        lines.append(
            f"MISMATCH {label} degree={degree}: engine={engine} formula={formula}"
        )
        return "\n".join(lines) + "\n", 1

    for n in range(2, 11):
        algebra = lie_algebra.direct_sum(lie_algebra.aff_r(), lie_algebra.abelian(n - 2))
        profile = _full_complex_profile(algebra)
        for k in range(n + 1):
            checks += 1
            expected = closed_forms.betti_aff_ext(n, k)
            if profile.b[k] != expected:
                return mismatch(f"aff-ext(n={n})", k, profile.b[k], expected)
    lines.append("aff-ext n=2..10 ok")

    for m in range(1, 5):
        algebra = lie_algebra.heisenberg(m)
        profile = _full_complex_profile(algebra)
        for k in range(2 * m + 2):
            checks += 1
            expected = closed_forms.betti_heisenberg(m, k)
            if profile.b[k] != expected:
                return mismatch(f"heisenberg(m={m})", k, profile.b[k], expected)
    lines.append("heisenberg m=1..4 ok")

    for m in range(1, 5):
        for n in range(2 * m + 2, 11):
            algebra = lie_algebra.direct_sum(
                lie_algebra.heisenberg(m), lie_algebra.abelian(n - 2 * m - 1)
            )
            profile = _full_complex_profile(algebra)
            for k in range(n + 1):
                checks += 1
                expected = closed_forms.betti_heisenberg_ext(m, n, k)
                if profile.b[k] != expected:
                    return mismatch(
                        f"heisenberg-ext(m={m}, n={n})", k, profile.b[k], expected
                    )
    lines.append("heisenberg-ext grids ok")

    rng = random.Random(seed)
    for _ in range(25):
        lam = _random_lambda(rng)
        engine = _full_complex_profile(lie_algebra.diamond_algebra(lam)).b[2]
        expected = closed_forms.diamond_b2(closed_forms.lambda_classes(lam))
        checks += 1
        if engine != expected:
            label = "diamond(" + ",".join(str(v) for v in lam) + ")"
            return mismatch(label, 2, engine, expected)
    lines.append("25 random diamond parameter lists ok")

    lines.append(f"ok: {checks} checks passed (seed {seed})")
    return "\n".join(lines) + "\n", 0


def _csv_text(headers, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


# every option once: its flag and its add_argument keyword arguments
_OPTIONS = {
    "--input": dict(
        metavar="PATH", help="JSON algebra file (verify: a profile JSON to re-check)"
    ),
    "--lambda": dict(
        dest="lam",
        action="append",
        metavar="SCALAR",
        help="diamond parameter, repeatable; grammar like 1, -1/2, 1/2+3/4i",
    ),
    "--family": dict(choices=FAMILIES, help="built-in algebra family"),
    "--m": dict(type=int, help="Heisenberg parameter"),
    "--d": dict(type=int, help="abelian dimension"),
    "--n": dict(type=int, help="total dimension for the -ext families"),
    "--degree": dict(type=int, required=True),
    "--seed": dict(type=int, help="random seed for the diamond sweep"),
    "--format": dict(
        dest="fmt",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default table)",
    ),
    "--output": dict(metavar="PATH", help="write output to a file"),
}
_ALGEBRA = ("--input", "--lambda", "--family", "--m", "--d", "--n")
_ALGEBRA_AT_DEGREE = (*_ALGEBRA, "--degree")
# (name, handler, help, its options before --format and --output, which all take)
_COMMANDS = (
    ("betti", _cmd_betti, "one Betti number", _ALGEBRA_AT_DEGREE),
    ("profile", _cmd_profile, "full Betti profile", _ALGEBRA),
    ("cocycles", _cmd_cocycles, "cohomology class representatives", _ALGEBRA_AT_DEGREE),
    ("export-matrix", _cmd_export_matrix, "one coboundary matrix as text", _ALGEBRA_AT_DEGREE),
    ("diamond-b2", _cmd_diamond_b2, "degree-2 count for diamond parameters", ("--lambda",)),
    ("verify", _cmd_verify, "sweep closed formulas against the engine", ("--input", "--seed")),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with the subcommand named ``command``, or with all if it names none."""
    description = "Exact Lie algebra cohomology with trivial coefficients."
    parser = argparse.ArgumentParser(prog="liecoh", description=description)
    chosen = [row for row in _COMMANDS if row[0] == command]
    # the root usage of a one-subcommand parser still lists every choice
    metavar = "{" + ",".join(row[0] for row in _COMMANDS) + "}" if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, handler, text, options in chosen or _COMMANDS:
        subparser = sub.add_parser(name, help=text)
        for flag in (*options, "--format", "--output"):
            subparser.add_argument(flag, **_OPTIONS[flag])
        subparser.set_defaults(handler=handler)
    return parser


def _absorb_lambda_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like -i or -1/2 for option flags; gluing
    # them onto --lambda with '=' keeps the documented grammar usable
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--lambda" and i + 1 < len(argv):
            out.append(f"--lambda={argv[i + 1]}")
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _absorb_lambda_values(list(argv))
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        text, code = args.handler(args)
    except LieCohError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            print(f"error: cannot write {args.output}: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

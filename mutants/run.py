"""Mutation checks of the engine's routes, run from the repository root.

    python3 mutants/run.py

Each mutant in ``MUTANTS`` replaces one exact text of a module under
``src/liecoh`` by another.  It runs on a fresh temporary copy of what
tier-1 reads: ``src``, ``tests``, ``perfbench`` (its tracer),
``pyproject.toml`` and ``README.md`` (its examples).  The tests named
to kill it run first, then the whole tier-1 suite (``tests``) if they
pass.  A mutant dies when a test fails.  Only the standard library and
pytest are needed, and pytest does not collect this directory.

The script exits 2 unless every old text occurs exactly once and the
unmutated copy passes tier-1 and every named test, which must exist:
otherwise a mutant could die for nothing.  It prints one line per
mutant and exits 1 when a mutant that is not marked equivalent
survives, or when one marked equivalent dies, which refutes its
argument.

Left out: dropping the Gaussian content in ``linalg._strip_content``.
Elimination then slows down so much that the first test fails only
after about 164 s (``test_pivot_rows_stay_within_the_hadamard_bound``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/liecoh
    old: str
    new: str
    route: str
    kill: tuple[str, ...]  # pytest node ids expected to kill it
    equivalent: str | None = None  # why no test can kill it, in one line


MUTANTS = (
    Mutant(
        "packing-base-without-dim",
        "cochain.py",
        "    base = 2 * dim * max(",
        "    base = 2 * max(",
        "weight-0 cochains and the torus count: packed weights",
        ("tests/test_cochain.py::test_equal_unit_weights_match_the_full_complex",),
    ),
    Mutant(
        "weights-sign-of-l-equals-a",
        "cochain.py",
        "                along.setdefault(b, {})[a] = (-re, -im)",
        "                along.setdefault(b, {})[a] = (re, im)",
        "weights of ad(e_p) read from the integer table",
        ("tests/test_cochain.py::test_profile_diamond",),
    ),
    Mutant(
        "counted-betti-zero-weight-check-dropped",
        "cochain.py",
        "            return None if any(values) else [comb(d - 1, k) for k in range(d + 1)]",
        "            return [comb(d - 1, k) for k in range(d + 1)]",
        "MD(n, 1) closed forms: aff + a only without weights",
        ("tests/test_cochain.py::test_torus_factors_match_the_full_complex",),
    ),
    Mutant(
        "torus-kept-on-the-ideal-slice",
        "cochain.py",
        "            table = {pair: v for pair, v in table.items() if torus.isdisjoint(pair)}\n",
        "",
        "Hochschild-Serre split: the ideal's slice of the integer table",
        ("tests/test_cochain.py::test_split_torus_is_not_assembled",),
    ),
    Mutant(
        "expand-d-parity-without-position",
        "lie_algebra.py",
        "                    if (position + (rest & between).bit_count()) & 1:",
        "                    if (rest & between).bit_count() & 1:",
        "assembly of D d_k from the integer table",
        ("tests/test_cochain.py::test_assembly_columns_match_apply_coboundary",),
    ),
    Mutant(
        "jacobi-sign-flipped",
        "lie_algebra.py",
        "(old_re - re * x + im * y, old_im - re * y - im * x)",
        "(old_re + re * x - im * y, old_im + re * y + im * x)",
        "Jacobi check as d(d e_l*) = 0: the reported residual",
        ("tests/test_lie_algebra.py::test_jacobi_violation_reported",),
    ),
    Mutant(
        "bracket-form-central-inverted",
        "cochain.py",
        "            return z, omega, False\n    return z, omega, True",
        "            return z, omega, True\n    return z, omega, False",
        "MD(n, 1) closed forms: Heisenberg or affine by the centrality of z",
        ("tests/test_cochain.py::test_line_factors_match_the_full_complex",),
    ),
    Mutant(
        "reduce-hits-read-once",
        "linalg.py",
        "    while hits := row.keys() & pivots.keys():\n        col = min(hits)\n",
        "    for col in sorted(row.keys() & pivots.keys()):\n",
        "elimination: the pivot columns a row meets, found again after each step",
        ("tests/test_linalg.py::test_rref_idempotent_and_pivots_sorted",),
    ),
    Mutant(
        "rref-skip-inverted",
        "linalg.py",
        "row if pivots.keys().isdisjoint(row) else _reduce(row, pivots)",
        "row if not pivots.keys().isdisjoint(row) else _reduce(row, pivots)",
        "rref back-substitution: rows with no entry in another pivot column",
        ("tests/test_linalg.py::test_rref_idempotent_and_pivots_sorted",),
    ),
    Mutant(
        "strip-one-entry-row-unchanged",
        "linalg.py",
        "        return {c: (1, 0) for c in row}",
        "        return row",
        "elimination: the primitive multiple of a one-entry row",
        # no rank, kernel or span changes, but a one-entry row left by a
        # reduction keeps the size of its cross-multiplied entry
        ("tests/test_linalg.py::test_pivot_rows_stay_within_the_hadamard_bound",),
    ),
    Mutant(
        "expand-d-active-from-pairs",
        "lie_algebra.py",
        "                active |= 1 << l\n",
        "                active |= pair\n",
        "assembly of D d_k: monomials with no index l where d(e_l*) != 0",
        ("tests/test_cochain.py::test_assembly_columns_match_apply_coboundary",),
    ),
    Mutant(
        "form-key-last-index-may-equal-dim",
        "exterior.py",
        "0 <= key[0] and key[-1] < dim",
        "0 <= key[0] and key[-1] <= dim",
        "ExteriorForm keys: the range of an increasing key read from its ends",
        ("tests/test_exterior.py::test_constructor_validation",),
    ),
    Mutant(
        "format-space-without-coefficient",
        "exterior.py",
        '" " if coeff and monomial else ""',
        '" " if monomial else ""',
        "form text: the space between a coefficient and its monomial",
        ("tests/test_exterior.py::test_format_examples",),
    ),
    Mutant(
        "rational-sign-outside-the-group",
        "scalars.py",
        'r"([+-]?\\d+)(?:/(\\d+))?"',
        'r"[+-]?(\\d+)(?:/(\\d+))?"',
        "rational text read from the groups of its pattern",
        ("tests/test_scalars.py::test_parse_rational_matches_the_stdlib_reader_random",),
    ),
    Mutant(
        "blocks-file-by-second-index",
        "cochain.py",
        "        block = block_of[pair[0]]",
        "        block = block_of[pair[1]]",
        "direct-sum factors: each bracket filed under its factor",
        (),
        equivalent="[e_i, e_j] joins i and j, so both indices lie in one factor",
    ),
)


def _copy() -> tempfile.TemporaryDirectory:
    """A temporary copy of the sources and tests, without caches."""
    tmp = tempfile.TemporaryDirectory(prefix="liecoh-mutant-")
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "_run")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, Path(tmp.name) / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp.name)
    return tmp


def _pytest(where: str, targets) -> tuple[bool, str]:
    """Run pytest on ``targets`` inside a copy; (passed, first failure)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *targets],
        cwd=where, env=env, capture_output=True, text=True,
    )
    failures = [
        line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))
    ]
    return done.returncode == 0, failures[0] if failures else f"exit {done.returncode}"


def _source(mutant: Mutant) -> Path:
    return Path("src") / "liecoh" / mutant.file


def _killer(where: str, mutant: Mutant) -> str | None:
    """The first failure of the mutant's named tests, else of tier-1."""
    for targets in (mutant.kill, ("tests",)):
        if targets:
            passed, failure = _pytest(where, targets)
            if not passed:
                return failure
    return None


def main() -> int:
    for mutant in MUTANTS:
        count = (ROOT / _source(mutant)).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            print(f"{mutant.name}: its old text occurs {count} times in {mutant.file}, not once")
            return 2
    with _copy() as where:
        named = sorted({node for mutant in MUTANTS for node in mutant.kill})
        for targets in (named, ["tests"]):
            passed, failure = _pytest(where, targets)
            if not passed:
                print(f"the unmutated copy fails: {failure}")
                return 2
    wrong = 0
    for mutant in MUTANTS:
        with _copy() as where:
            path = Path(where) / _source(mutant)
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            killed_by = _killer(where, mutant)
        if mutant.equivalent is None:
            verdict = f"killed: {killed_by}" if killed_by else "SURVIVED"
            wrong += killed_by is None
        else:
            verdict = (f"KILLED, so not equivalent: {killed_by}" if killed_by
                       else f"survived, equivalent: {mutant.equivalent}")
            wrong += killed_by is not None
        print(f"{mutant.name} ({mutant.file}; {mutant.route}): {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {wrong} wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

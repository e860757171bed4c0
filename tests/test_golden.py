"""Command-line output on the bundled examples, pinned byte for byte.

Every case runs one command in process, once as text and once with
``--json``, and compares the exit code and everything written to stdout
with the files under ``tests/golden/``.  A change that alters an output
on purpose regenerates the files with ``python tests/test_golden.py``
and says in its description which outputs changed and why.
"""

import contextlib
import io
import json
import pathlib

import pytest

from lawbench.cli import run

from conftest import example

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = {
    "preservation-stream-trace":
        ["check-preservation", "stream.dsl", "--trace"],
    "preservation-convolution":
        ["check-preservation", "convolution.dsl"],
    "preservation-convolution-trace":
        ["check-preservation", "convolution.dsl", "--trace"],
    "preservation-three-zeros-trace":
        ["check-preservation", "three-zeros.dsl", "--trace"],
    "preservation-cfg-trace":
        ["check-preservation", "cfg.dsl", "--trace"],
    "preservation-balanced":
        ["check-preservation", "balanced.dsl"],
    "run-stream-tt":
        ["run", "stream.dsl", "--state", "ones * ones", "--word", "tt"],
    "run-stream-ttt":
        ["run", "stream.dsl", "--state", "ones * ones + [3] * X",
         "--word", "ttt"],
    "run-convolution-ttt":
        ["run", "convolution.dsl", "--state", "ones * X", "--word", "ttt"],
    "run-cfg-aab":
        ["run", "cfg.dsl", "--state", "S * B", "--word", "aab"],
    "run-balanced-aab":
        ["run", "balanced.dsl", "--state", "S + 1", "--word", "aab"],
    "run-three-zeros-no-system":
        ["run", "three-zeros.dsl", "--state", "n1"],
    "run-stream-fractions":
        ["run", "stream.dsl", "--state", "[1/2] * ones * ones + [2/3] * X",
         "--word", "ttt"],
    "stream-stream-square":
        ["stream", "stream.dsl", "--state", "ones * ones", "--n", "6"],
    "stream-stream-mixed":
        ["stream", "stream.dsl", "--state", "X + [2] * ones", "--n", "5"],
    "stream-stream-fractions":
        ["stream", "stream.dsl", "--state", "[1/2] * ones * ones + [2/3] * X",
         "--n", "6"],
    "stream-convolution-square":
        ["stream", "convolution.dsl", "--state", "ones * ones", "--n", "6"],
    "member-cfg-aabb":
        ["cfg-member", "cfg.dsl", "--word", "aabb"],
    "member-cfg-aab":
        ["cfg-member", "cfg.dsl", "--word", "aab"],
    "member-balanced-abab":
        ["cfg-member", "balanced.dsl", "--word", "abab"],
    "member-balanced-empty":
        ["cfg-member", "balanced.dsl"],
    "equiv-cfg-s-one":
        ["cfg-equiv", "cfg.dsl", "--left", "S", "--right", "1"],
    "equiv-cfg-s-s":
        ["cfg-equiv", "cfg.dsl", "--left", "S", "--right", "S"],
    "equiv-cfg-zero-sum":
        ["cfg-equiv", "cfg.dsl", "--left", "S * B", "--right", "S * B + 0"],
    "equiv-balanced-square":
        ["cfg-equiv", "balanced.dsl", "--left", "S", "--right", "S * S",
         "--maxlen", "4"],
    "commute-stream":
        ["quotient-commute", "stream.dsl", "--max-size", "3", "--depth", "3"],
    "commute-convolution":
        ["quotient-commute", "convolution.dsl",
         "--max-size", "3", "--depth", "3"],
    "commute-cfg":
        ["quotient-commute", "cfg.dsl", "--max-size", "3", "--depth", "3"],
    "commute-balanced":
        ["quotient-commute", "balanced.dsl", "--max-size", "2", "--depth", "3"],
    "algebra-stream-scaled":
        ["algebra-check", "stream.dsl", "--outer", "[2] * ones"],
    "algebra-stream-mixed":
        ["algebra-check", "stream.dsl", "--outer", "ones * ones + X",
         "--horizon", "6"],
    "algebra-convolution-square":
        ["algebra-check", "convolution.dsl", "--outer", "ones * ones"],
    "algebra-cfg-product":
        ["algebra-check", "cfg.dsl", "--outer", "S * B"],
    "algebra-cfg-sum":
        ["algebra-check", "cfg.dsl", "--outer", "S + S * B + 0"],
    "algebra-balanced":
        ["algebra-check", "balanced.dsl", "--outer", "S + R * S",
         "--horizon", "4"],
}

MODES = {"txt": [], "json": ["--json"]}


def _argv(case: list[str], mode: str) -> list[str]:
    command, file, *rest = case
    return [command, example(file), *rest, *MODES[mode]]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, mode):
    code, out = _run(_argv(CASES[name], mode))
    assert out == (GOLDEN / f"{name}.{mode}").read_text()
    assert code == _exit_codes()[f"{name}.{mode}"]


def test_every_golden_file_has_a_case():
    names = {f"{name}.{mode}" for name in CASES for mode in MODES}
    files = {p.name for p in GOLDEN.iterdir()} - {"exit_codes.json"}
    assert files == names
    assert set(_exit_codes()) == names


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        for mode in sorted(MODES):
            codes[f"{name}.{mode}"], out = _run(_argv(CASES[name], mode))
            (GOLDEN / f"{name}.{mode}").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")

"""The CLI's byte-exact output on a fixed command set.

Each command's exit code, stdout and stderr are compared with its block in
``tests/golden/cli.txt``.  After a change that moves an output on purpose,
rewrite the file with ``PYTHONPATH=src python tests/test_cli_golden.py`` and
review its diff.
"""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from volswap import cli

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

_MODEL = ("--sigma", "0.08", "--kappa", "1.5", "--N", "52")
_CONST = ("--eta", "51", "--sigma-n", "0.02")

COMMANDS = [
    ("price", "--contract", "vol-swap", *_MODEL),
    ("price", "--contract", "var-swap", *_MODEL),
    ("price", "--contract", "vol-swap", "--method", "const-c", "--c", "0.0004", "--eta", "51"),
    ("price", "--contract", "var-swap", "--method", "const-c", "--c", "0.02", "--eta", "51"),
    ("price", "--contract", "vol-swap", "--method", "ncchi", "--lambda-bar", "2.5", *_CONST),
    ("price", "--contract", "var-swap", "--method", "ncchi", "--lambda-bar", "2.5", *_CONST),
    ("price", "--contract", "vol-swap", "--method", "central", *_CONST),
    ("price", "--contract", "var-swap", "--method", "central", *_CONST),
    ("price", "--contract", "vol-swap", "--method", "ncchi", "--eta", "251",
     "--lambda-bar", "1500", "--sigma-n", "0.001"),
    ("price", "--contract", "vol-swap", "--method", "ncchi", "--eta", "4999",
     "--lambda-bar", "100", "--sigma-n", "0.001"),
    ("price", "--contract", "var-call", "--method", "ncchi", "--strike", "64", *_MODEL),
    ("price", "--contract", "var-call", "--strike", "64", *_MODEL),
    ("price", "--contract", "var-call", "--method", "central", "--strike", "64", *_MODEL),
    ("price", "--contract", "vol-swap", *_MODEL, "--validate-mc", "2000", "--format", "json"),
    ("pdf", "--points", "20"),
    ("bound-table", "--kappas", "0.5,3.0", "--Ks", "0,3", "--sigmas", "0.05,0.1"),
    ("bound-table", "--spectral", "--kappas", "0.5,3.0", "--Ks", "0,3", "--sigmas", "0.05,0.1"),
    ("price", "--contract", "vol-swap", "--method", "ncchi"),
    ("price", "--contract", "var-swap", "--method", "central", "--eta", "-2",
     "--sigma-n", "0.01"),
    ("price", "--contract", "vol-swap", "--method", "central", "--eta", "5",
     "--sigma-n", "-0.01"),
    ("price", "--contract", "vol-swap", "--method", "central", *_CONST, "--T", "0"),
    ("price", "--contract", "vol-call", "--strike", "8", *_MODEL),
    ("price", "--contract", "var-call", "--strike", "64", *_MODEL, "--terms", "25"),
]


def transcript(argv) -> str:
    """The command line, exit code, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return (f"$ volswap {shlex.join(argv)}\n[exit {code}]\n"
            f"[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}")


def _golden_blocks() -> dict:
    blocks = re.split(r"(?m)^(?=\$ volswap )", GOLDEN.read_text(encoding="utf-8"))
    return {b.partition("\n")[0]: b for b in blocks if b}


def test_golden_file_holds_exactly_the_command_set():
    assert list(_golden_blocks()) == [f"$ volswap {shlex.join(a)}" for a in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    expected = _golden_blocks()[f"$ volswap {shlex.join(argv)}"]
    assert transcript(argv) == expected


if __name__ == "__main__":
    GOLDEN.write_text("".join(transcript(a) for a in COMMANDS), encoding="utf-8")

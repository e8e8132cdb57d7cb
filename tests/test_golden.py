"""Golden CLI outputs: stdout of a fixed set of commands, byte for byte.

Each command runs in-process through ``cli.main``; its stdout must equal
the file under ``tests/golden/``.  CSV rows end in ``\\r\\n`` while header
lines end in ``\\n``, so the files are read and written with ``newline=""``.

Regenerate the files (after a deliberate, documented output change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from rankgradient.cache import CACHE_DIR_ENV
from rankgradient.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = {
    "lowindex_f2_max4": "lowindex --preset f2 --max 4",
    "lowindex_surface2_max3_csv": "lowindex --preset surface2 --max 3 --format csv",
    "chain_fig8_depth6": "chain --preset fig8 --depth 6",
    "chain_fig8_depth16": "chain --preset fig8 --depth 16",
    "chain_fig8_depth6_csv": "chain --preset fig8 --depth 6 --format csv",
    "chain_fig8_depth3_text": "chain --preset fig8 --depth 3 --format text",
    "gradient_lamplighter3_depth2_text": "gradient --preset lamplighter3 --depth 2 --format text",
    "chain_f2_depth3": "chain --preset f2 --depth 3",
    "tower_s3_mu34_depth2": "tower --group s3 --mu 3/4 --depth 2",
    "tower_s3_mu34_depth3": "tower --group s3 --mu 3/4 --depth 3 --seed 0",
    "tower_z2z2_mu12_depth1_csv": "tower --group z2z2 --mu 1/2 --depth 1 --format csv",
    "tower_z2z2_mu12_depth1_text": "tower --group z2z2 --mu 1/2 --depth 1 --format text",
    "graphing_fig8_depth3_level3": "graphing --preset fig8 --depth 3 --level 3",
    "graphing_f2_depth2_level2": "graphing --preset f2 --depth 2 --level 2",
    "validate_s3": "validate --preset s3",
    "enumerate_f2_sub_k_text": "enumerate --preset f2 --sub K --format text",
}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def golden_path(name):
    return GOLDEN_DIR / f"{name}.out"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    code, out = run_cli(COMMANDS[name].split())
    assert code == EXIT_OK
    with open(golden_path(name), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert out == expected


if __name__ == "__main__":
    os.environ.pop(CACHE_DIR_ENV, None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, command in sorted(COMMANDS.items()):
        code, out = run_cli(command.split())
        if code != EXIT_OK:
            sys.exit(f"{command}: exit code {code}")
        with open(golden_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        print(f"wrote {golden_path(name)}")

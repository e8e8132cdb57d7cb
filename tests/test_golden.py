"""Golden CLI outputs: stdout of a fixed set of commands, byte for byte.

Each command runs in-process through ``cli.main``; its stdout must equal
the file under ``tests/golden/``.  CSV rows end in ``\\r\\n`` while header
lines end in ``\\n``, so the files are read and written with ``newline=""``.

Regenerate the files (after a deliberate, documented output change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

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


# SHA-256 of each golden's report body as it was before the config echo was
# rebuilt from the parsed options: the compact JSON of the "report" object,
# or the text/CSV lines after the two header lines joined by "\n".  Only the
# config echo, and the lowindex CSV row endings ("\n" then, "\r\n" now),
# changed with that rebuild.  The three tower reports that carry rank_upper
# (s3 depths 2 and 3, z2z2 CSV) were re-pinned when the tower rank upper
# bound became the Kurosh count; nothing else in their bodies changed.
REPORT_DIGESTS = {
    "chain_f2_depth3": "446e943102f48260a5c4eb6cf0f4f733245eed3d44094d9691c7ef8cd7c30c82",
    "chain_fig8_depth16": "9ff52e00118ed54c23121c9c489f13c717731cdddc1208d26c3332c4a7746788",
    "chain_fig8_depth3_text": "f5459b449b2ccfef2eeeb3c8948ac8c21a544cafb26b6930088beb6601f7f993",
    "chain_fig8_depth6": "d7cb6dd32da0e2362fcc1de31d7c4273e93cb83dca8e4edd0200dd4a2e5e6a8e",
    "chain_fig8_depth6_csv": "20a5ab85b6dd7c5f5dd5ee327635ea93637b890009460c75530dc9b548b3f0d9",
    "enumerate_f2_sub_k_text": "130ce6c04765f586e41e71dff2b0a298b77e4a73282a2f20bfadb9566e76ab41",
    "gradient_lamplighter3_depth2_text": "6a629e8a7f097c0c997c6d53f1bf042ac9733fae7bb336f5abd7d0cb54733ba1",
    "graphing_f2_depth2_level2": "682b0303b7a5ad62fa7116799ca2ab2c5f257a7c48228fd4cfb1c2639675d0dc",
    "graphing_fig8_depth3_level3": "1b7d78d3815c33120e0014eaa1f920b6dc8c5f77f4e52f05acd7f8d02e32d6a8",
    "lowindex_f2_max4": "35bf5e7e7e8b5a556cedf56d0fe7887bd25b7ffbd2fc021ee8d5542c24802afc",
    "lowindex_surface2_max3_csv": "a9a9f2b31012345f6a4a364947c9a89c4edcf2b5ccd3b744f6e39776060fcd67",
    "tower_s3_mu34_depth2": "10b7592ec863764f655e24c13488c35591e6ff0d82d1b31906351395df7ab42e",
    "tower_s3_mu34_depth3": "02dab3b36ab38086e810144147890c5756e7bb1967d62b0553bd6f9f8de0198a",
    "tower_z2z2_mu12_depth1_csv": "700843631201e7d354890d68845bb0145b5a101224e7d7d3fce465cd25f9fd01",
    "tower_z2z2_mu12_depth1_text": "0d3892fc0f8ea5d68393c2ff66f83a1ab4c84b5625a9cfdbabe03947e1357cd4",
    "validate_s3": "3812f2d1cf876d8fbafb3dd22ed93cde5ca80a0e2f0f0b97a9e54871c2072aef",
}


def report_body(text):
    if text.startswith("{"):
        return json.dumps(json.loads(text)["report"], separators=(",", ":"))
    return "\n".join(text.splitlines()[2:])


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def golden_path(name):
    return GOLDEN_DIR / f"{name}.out"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    code, out = run_cli(COMMANDS[name].split())
    assert code == EXIT_OK
    with open(golden_path(name), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert out == expected


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report_body_unchanged(name):
    with open(golden_path(name), "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    digest = hashlib.sha256(report_body(text).encode("utf-8")).hexdigest()
    assert digest == REPORT_DIGESTS[name]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, command in sorted(COMMANDS.items()):
        code, out = run_cli(command.split())
        if code != EXIT_OK:
            sys.exit(f"{command}: exit code {code}")
        with open(golden_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        print(f"wrote {golden_path(name)}")

"""CLI reports compared byte for byte with golden files.

``tests/golden/manifest.json`` maps each golden file to the arguments that
produce it and the exit code expected with it; the file holds the command's
stdout. After a deliberate change to a report, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from becochains.cli import main

GOLDEN = Path(__file__).parent / "golden"

DIMS_TABLES = ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3))
COMMANDS = {
    **{f"dims-k{k}-t{t}": ["dims", "--k", str(k), "--t", str(t)] for k, t in DIMS_TABLES},
    "verify-basics": ["verify-basics"],
    "obstruct": ["obstruct"],
    "obstruct-gauge-seed-42": ["obstruct", "--gauge-seed", "42"],
}
FORMATS = (("text", "txt"), ("json", "json"))


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", [f"{stem}.{ext}" for stem in COMMANDS for _, ext in FORMATS])
def test_report_matches_golden(name):
    case = json.loads((GOLDEN / "manifest.json").read_text())[name]
    code, out = run(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / name).read_text()


def regenerate():
    manifest = {}
    for stem, argv in COMMANDS.items():
        for fmt, ext in FORMATS:
            full = argv + ["--format", fmt]
            code, out = run(full)
            (GOLDEN / f"{stem}.{ext}").write_text(out)
            manifest[f"{stem}.{ext}"] = {"argv": full, "exit": code}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    regenerate()

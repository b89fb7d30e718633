"""Golden bytes: the sha256 of every file the CLI writes on a fixed input.

`assign --window 10` builds the 441-particle arctan flow; its rows are then
shuffled with a seeded `random.Random` and fed to `verify`, `cylinders` and
`evolve`. The pinned hashes were taken from the per-particle object code
that the array representation replaced, so any change to an emitted byte,
in value, order or formatting, fails here.
"""
import hashlib
import random
import subprocess
import sys

import pytest

GOLDEN = {
    "assign": {
        "assign_report.txt": "9e2f26462bb6b259672c65300010da3d1bcd9ec2a55d0e9d90a33a3ebdbca4df",
        "particles.txt": "fe020c5ff806287dd6e44f88fbf42f4d5b4a8c15ef7ca13bc6fb7ac1a73d9016",
    },
    "verify": {
        "report.txt": "0b4ce8cf79cfa45c200c3045e612b35c95e5427020707b77ce7f8b17bc2eebf1",
    },
    "cylinders": {
        "cylinder_report.txt": "b29c9123cd7fa5aa4ae8b044800bde5f1d1a2c88bae87203198cc3efe7a0e06e",
        "scene.txt": "1d04dd16689e779116b0aa7e6b6d1609db12a2b7d3a2a9fbf70b71edbb154c0d",
    },
    "evolve": {
        "frames.csv": "55c47bbf3d68ec0e5e6ae4ddae154b914eaba8091a796d00b1c88b64e7369bb5",
        "frame0000.svg": "9f694518efee9c6040dafd32adee9d7129d87eab36407d762d207725411ca785",
        "frame0001.svg": "694caae1b76be72612e2d33e0bcb97a2f770af8c547b9430dfda44ad6dfffc4e",
        "frame0002.svg": "b120391dd0b2c23a6f892abb83eb42289376fc1c3365927dd3b9e6e3092d1c75",
        "frame0003.svg": "962a43f27bfabdf163c18140e1586a7e930fee2db7aa697b533dd59c1408b5d4",
        "frame0004.svg": "da888e63efaad968c5a6b161bc6c7483e7558f23a2f104e5d5a2866e3131a04f",
    },
}


def run_cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "freedrift.cli", *map(str, args)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    run_cli("--command", "assign", "--window", "10", "--out", root / "assign")
    header, *rows = (root / "assign" / "particles.txt").read_text().splitlines()
    random.Random(2026).shuffle(rows)
    shuffled = root / "shuffled.txt"
    shuffled.write_text("\n".join([header, *rows]) + "\n")
    for command in ("verify", "cylinders", "evolve"):
        run_cli("--command", command, "--particles", shuffled,
                "--seed", "777", "--out", root / command)
    return root


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_emitted_bytes_match_golden_hashes(outputs, command):
    written = sorted(p.name for p in (outputs / command).iterdir())
    assert written == sorted(GOLDEN[command])
    for name, digest in GOLDEN[command].items():
        data = (outputs / command / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"{command}/{name}"

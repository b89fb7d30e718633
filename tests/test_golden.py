"""Golden bytes: the sha256 of every file the CLI writes on fixed inputs.

`assign --window 10` builds the 441-particle arctan flow; its rows are then
shuffled with a seeded `random.Random` and fed to `verify`, `cylinders` and
`evolve`. `verify --window 10` adds the flow report, two static particles
give the `witness_time = all-times` marker, and radial `falsify` runs once
to a violation and once to an exhausted budget. The pinned hashes were
taken from the code before the array representation and before the report
dataclasses became the report schema, so any change to an emitted byte, in
value, order or formatting, fails here. Since then only three kinds of
line have changed on purpose: the verify reports' `mode` line, now
`exhaustive-structural` for the certified lattice rows; the exhausted
falsify report's `note`, which now says refinement converged with budget
left; and four lines of the cylinder report, which the certificate now
decides: `mode` (`exhaustive-structural`), `min_line_distance` (the exact
minimum rounded down, 0.23962428925284718, where the engine read
0.23962428925284585), `witness_pair` (the smallest exact minimiser, 2,102,
where the engine found 102,359) and `distance_margin`, which follows.
`scene.txt` is unchanged.
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
        "report.txt": "946f9c18c7eae067133f940eaa11db3cb0756a91465a00749995bd002573639e",
    },
    "cylinders": {
        "cylinder_report.txt": "7a5465df6acdb8827828fff0387853cb24c895eab40557bc1dd231ce075a0f5f",
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
    "verify-flow": {
        "report.txt": "a0743dd48c1285a2137f45010a1f7833fd4552d0450fe575a1408e80c7586e90",
        "flow_report.txt": "0af3d871ad8abac1a53c19a5f306109608305d9f1052269e3558f6fdca5f2ae0",
    },
    "verify-static": {
        "report.txt": "aaba9774491ab920b25e036ef10c321a9db57663efd96e16df7c94e711fd094f",
    },
    "falsify-violation": {
        "falsify_report.txt": "601cf9c96ab4b608789be974e1222c098c1d5b211a4d26175a81643ae4494e42",
    },
    "falsify-exhausted": {
        "falsify_report.txt": "6c1358f0d404182c2c435507385bb637d6dc3ebbf8b882bf53e5607dd939666e",
    },
}


def run_cli(*args, exit_code=0):
    result = subprocess.run(
        [sys.executable, "-m", "freedrift.cli", *map(str, args)],
        capture_output=True, text=True)
    assert result.returncode == exit_code, result.stderr


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
    run_cli("--command", "verify", "--window", "10", "--out", root / "verify-flow")
    static = root / "static.txt"
    static.write_text("particles v1\n0,0,0,0\n0,3,0,0\n")
    run_cli("--command", "verify", "--particles", static,
            "--out", root / "verify-static")
    run_cli("--command", "falsify", "--field", "radial", "--c", "0.05",
            "--out", root / "falsify-violation")
    run_cli("--command", "falsify", "--field", "radial", "--c", "1e-4",
            "--budget", "20000", "--out", root / "falsify-exhausted", exit_code=1)
    return root


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_emitted_bytes_match_golden_hashes(outputs, command):
    written = sorted(p.name for p in (outputs / command).iterdir())
    assert written == sorted(GOLDEN[command])
    for name, digest in GOLDEN[command].items():
        data = (outputs / command / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"{command}/{name}"

"""Golden bytes: the sha256 of every file the CLI writes on fixed inputs.

`assign --window 10` builds the 441-particle arctan flow; its rows are then
shuffled with a seeded `random.Random` and fed to `verify`, `cylinders` and
`evolve`. `verify --window 10` adds the flow report, `verify --window 0`
the one-particle flow (no pair: mode `exhaustive`, inf margins, the only
flow that `verify_flow` scans rather than certifies), two static particles
give the `witness_time = all-times` marker, and radial `falsify` runs to a
violation in the probes at c = 0.05, to a violation in the scaled stage at
c = 1e-4, and to a budget spent on the probes alone. The pinned hashes were
taken from the code before the array representation and before the report
dataclasses became the report schema, so any change to an emitted byte, in
value, order or formatting, fails here. Since then only these lines have
changed on purpose: the verify reports' `mode` line, now
`exhaustive-structural` for the certified lattice rows; four lines of the
cylinder report, which the certificate now decides: `mode`
(`exhaustive-structural`), `min_line_distance` (the exact minimum rounded
down, 0.23962428925284718, where the engine read 0.23962428925284585),
`witness_pair` (the smallest exact minimiser, 2,102, where the engine found
102,359) and `distance_margin`, which follows; and the radial run at
c = 1e-4 with budget 20,000, which ended exhausted after 15,884
evaluations (its `note` saying that refinement converged with budget
left) and now ends in a violation of the scaled stage after 1,456
(`falsify-scaled-violation`). `falsify-exhausted` is now the same run
with budget 1,344: the 672 probe pairs and nothing more. `scene.txt`
changed once, when the scene format became `cylinder-scene v2`: each row
is now the particles row with `0` after x2 and `1,<radius>` after v2, the
exact worldline direction (v, 1) in place of the rounded unit direction
(v, 1) / |(v, 1)|; its row order is unchanged. `verify-one` was pinned when `verify_flow` came to rest on
the certificate alone, from the code before that change. The separation
floor is now the largest double not above 1/sqrt(1 + M^2), where it was
1/hypot(1, M) rounded to nearest: in the cylinder report `radius`
(0.11299669629435875, was 0.11299669629435877), `separation_floor` and
`required_distance` (0.22599339258871751, was 0.22599339258871753) and
`distance_margin` (0.013630896664129671, was 0.013630896664129644) changed,
and in `scene.txt` the radius that ends each row.
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
        "cylinder_report.txt": "40c006d04db53f7bcc129bb9d1c8c8dccbc52d5daa36d9b2d437ad57db1a0903",
        "scene.txt": "3f6e4ee56c4d1b1bcd15ebdeb1512319cf7392e54ee44491fffb84e969e96ea7",
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
    "verify-one": {
        "report.txt": "4b0ac23bb7ec004f27a262523fb7515f3f075fe799807563ec87a3f2c6488111",
        "flow_report.txt": "51945131931349bfb7a582ba50dd8492c2498441fe16a9807a3f76e6239c657e",
    },
    "verify-static": {
        "report.txt": "aaba9774491ab920b25e036ef10c321a9db57663efd96e16df7c94e711fd094f",
    },
    "falsify-violation": {
        "falsify_report.txt": "601cf9c96ab4b608789be974e1222c098c1d5b211a4d26175a81643ae4494e42",
    },
    "falsify-scaled-violation": {
        "falsify_report.txt": "7e2a84c9f3e6a6a84988f8af801be715fc6bdfda41bae870104c3d3db3829e06",
    },
    "falsify-exhausted": {
        "falsify_report.txt": "bfb2a2a9f7d9156a65c8f0024e5046eed20b6a178e9ff370fbaf5ecdfd4d6d31",
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
    run_cli("--command", "verify", "--window", "0", "--out", root / "verify-one")
    static = root / "static.txt"
    static.write_text("particles v1\n0,0,0,0\n0,3,0,0\n")
    run_cli("--command", "verify", "--particles", static,
            "--out", root / "verify-static")
    run_cli("--command", "falsify", "--field", "radial", "--c", "0.05",
            "--out", root / "falsify-violation")
    run_cli("--command", "falsify", "--field", "radial", "--c", "1e-4",
            "--budget", "20000", "--out", root / "falsify-scaled-violation")
    run_cli("--command", "falsify", "--field", "radial", "--c", "1e-4",
            "--budget", "1344", "--out", root / "falsify-exhausted", exit_code=1)
    return root


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_emitted_bytes_match_golden_hashes(outputs, command):
    written = sorted(p.name for p in (outputs / command).iterdir())
    assert written == sorted(GOLDEN[command])
    for name, digest in GOLDEN[command].items():
        data = (outputs / command / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"{command}/{name}"

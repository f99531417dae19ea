"""Golden CLI output: the sha256 of every byte the commands print.

Each case runs ``cli.main`` in-process on a fixed config and compares the
digests of stdout, stderr and (for ``simulate``) the transcript, plus the
exit code, with values recorded from a known-good build. A change that
alters any CLI output on purpose must update the digest here and say so in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

import pytest

from codedmr import cli

CONFIGS = {
    "worked": {"K": 4, "m": ["1/5", "1/3", "1/3", "1/2"],
               "w": ["1/8", "1/4", "1/6", "11/24"], "strategy": "custom"},
    "k3": {"K": 3, "m": ["3/5", "2/3", "11/15"], "strategy": "computation"},
    "k12p2": {"K": 12, "m": ["1/6"] * 6 + ["1/2"] * 6, "strategy": "shuffle"},
}

COMMANDS = {
    **{f"{command}-{name}": [command, "--config", name]
       for name in CONFIGS for command in ("plan", "load", "bound", "gap", "simulate")},
    "table1": ["table", "--preset", "table1"],
    "table1-json": ["table", "--preset", "table1", "--json"],
    "table2": ["table", "--preset", "table2"],
    "table2-json": ["table", "--preset", "table2", "--json"],
    "sweep-fig2-k12": ["sweep", "--preset", "fig2-k12", "--step", "0.01"],
    "simulate-worked-bad-n": ["simulate", "--config", "worked", "--files", "39931"],
    "simulate-worked-bad-q": ["simulate", "--config", "worked", "--functions", "23"],
}

EMPTY = hashlib.sha256(b"").hexdigest()

# label: (exit code, stdout sha256, stderr sha256, transcript sha256 or None)
GOLDEN = {
    "bound-k12p2": (
        0, "19bb1c5a8090d5fa49956c32fb98c179675eb4f18885789083f3c5b3b9396634",
        EMPTY, None),
    "bound-k3": (
        0, "c436991ab34c31814114bc8e425a1e9ff2c9542840414b975caabd59c73bcd10",
        EMPTY, None),
    "bound-worked": (
        0, "80b315edf52a77add1465e509e2ab2d15d0ce54479061d3cc3279e50ceb765a3",
        EMPTY, None),
    "gap-k12p2": (
        0, "a16ec3d194a0daaa41e0e652ab4a9f8ffa01a74270b4b823d9c198c2ead9e7df",
        EMPTY, None),
    "gap-k3": (
        0, "bfb9f581f5d83c8182f3089d427c377e59c345941deb0c66d208faed1266cca7",
        EMPTY, None),
    "gap-worked": (
        0, "9df700628ae2e777b6c8b5e26070fa2950831a9bdd8b7115721bd68e099ceeb8",
        EMPTY, None),
    "load-k12p2": (
        0, "8a8754a10980427bb2ad1366654e99b0cf3ff19af8ed2114671243970b94f5c5",
        EMPTY, None),
    "load-k3": (
        0, "2a9d764060e068d7b93de9ff6b6a35e456a302641786036e932cba24fdffbb45",
        EMPTY, None),
    "load-worked": (
        0, "95fff43cb41656c1e7bfbc0bc57829da0c73f831ca28252532221018f639373a",
        EMPTY, None),
    "plan-k12p2": (
        0, "2c538cc4402f97c99a08240906a53e55be99c5200f8ceacd71008a857b59dc6b",
        EMPTY, None),
    "plan-k3": (
        0, "873e422b985e069b810dfa2bd06bafce887c838f03fce43e9c412d024274b4da",
        EMPTY, None),
    "plan-worked": (
        0, "fdc7119b7752620ced2ca2aadf20eaa1c1b8de759ff6f8084c2e04e61badf6e0",
        EMPTY, None),
    "simulate-k12p2": (
        1, EMPTY,
        "9d3ebf2d2c749e913f764a16137e771cfa838ae4670ccf04d68859f733548d6d", None),
    "simulate-k3": (
        0, "0e67661625f9b174806bfa9c096c007c8d27e2a17a4897862001efad42ac1c13",
        EMPTY, "c57fec2cd5b3aa8ac00ca330975a26ba4e23cbc1fbc3b61c0742ac5d6415251a"),
    "simulate-worked": (
        0, "ba8421e133376dd92b6e8267da2c3be48aa53d736bb192f5d3c1be1c5e978e34",
        EMPTY, "da171efadb35a5e03e903eb0c1d68a6f295f9dc0189887187ff32908539bf3cd"),
    "simulate-worked-bad-n": (
        1, EMPTY,
        "503d5df17edd9e3d7a240150ccfb2ad4a0288cb763c7ccd63d790a6d24eda22b", None),
    "simulate-worked-bad-q": (
        1, EMPTY,
        "31a8c4d7849d1710fbd0d0bd48bb484a6e9dacaa43562ec40fddca65d3a13aed", None),
    "sweep-fig2-k12": (
        0, "60fa4b702aed64c8c66b6bf9455f8444a4b7bdbf8055365734f10f70fca67367",
        EMPTY, None),
    "table1": (
        0, "b4402ada01c6f929d29f7a206cf8f5cc556971a509ed41ea7ab2c619f0f86b21",
        EMPTY, None),
    "table1-json": (
        0, "6a4fef48c01d18cdc800600fe09d53fbba8fa66184742253563046724cdfdd1c",
        EMPTY, None),
    "table2": (
        0, "3dce11f6692feb582c98b4cd493f226030b4ff465d20fca60b5ec339d23bd8fc",
        EMPTY, None),
    "table2-json": (
        0, "cc5e70ba2676956d30cc312f30509be460ee0f768dbd50b2cba21922f0ac000e",
        EMPTY, None),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(label: str, workdir) -> tuple[int, str, str, str | None]:
    argv = list(COMMANDS[label])
    if "--config" in argv:
        name = argv[argv.index("--config") + 1]
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(CONFIGS[name]))
        argv[argv.index("--config") + 1] = str(path)
    transcript = workdir / "transcript.jsonl" if argv[0] == "simulate" else None
    if transcript is not None:
        argv += ["--transcript", str(transcript)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = None
    if transcript is not None and transcript.exists():
        written = _sha(transcript.read_text())
    return code, _sha(out.getvalue()), _sha(err.getvalue()), written


def test_every_command_is_pinned():
    assert sorted(GOLDEN) == sorted(COMMANDS)


@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_output_matches_golden(label, tmp_path):
    assert run_case(label, tmp_path) == GOLDEN[label]

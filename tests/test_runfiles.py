"""Every file ``train``, ``eval``, ``forecast`` and ``export-weights``
write, against ``runfiles_golden.json``.

The fixture holds the output directories of the four commands run on the
tiny synthetic config of ``test_cli.py`` from an empty working directory
(relative paths, so the echoed configs do not depend on where it ran):
text files verbatim, checkpoints as SHA-256 digests. Every file must match
byte for byte, with two exceptions. The wall-clock line of
``seed*_summary.txt`` only has to keep its format. The ``upsampled`` rows
of ``head_*.csv`` match to rtol/atol 1e-6, because interpolating before or
after the instance scale is restored rounds differently. Re-record the
fixture from the code on the import path with

    PYTHONPATH=src python tests/test_runfiles.py

only at a commit whose outputs are the reference.
"""

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from mdmixer.cli import main

from test_cli import SYNTH_CONFIG

FIXTURE = Path(__file__).with_name("runfiles_golden.json")
COMMANDS = [
    ["train", "--config", "run.cfg"],
    ["eval", "--config", "run.cfg", "--checkpoint", "run/seed1.ckpt",
     "--out", "eval", "--seed", "1"],
    ["forecast", "--config", "run.cfg", "--checkpoint", "run/seed1.ckpt",
     "--out", "forecast", "--window", "3"],
    ["export-weights", "--config", "run.cfg", "--checkpoint", "run/seed2.ckpt",
     "--out", "weights"],
]
WALL_CLOCK = re.compile(r"wall clock seconds: \d+\.\d{3}\n")


def record(workdir: Path) -> dict[str, str]:
    """Run every command in ``workdir``; return each file written, by
    relative path."""
    (workdir / "run.cfg").write_text(SYNTH_CONFIG.format(out="run"),
                                     encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in COMMANDS:
            assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name != "run.cfg":
            data = path.read_bytes()
            files[path.relative_to(workdir).as_posix()] = (
                "sha256:" + hashlib.sha256(data).hexdigest()
                if path.suffix == ".ckpt" else data.decode("utf-8"))
    return files


GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8")) \
    if FIXTURE.exists() else {}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return record(tmp_path_factory.mktemp("runfiles"))


def test_same_files_written(written):
    assert sorted(written) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_file_matches_recording(written, name):
    got = written[name].splitlines(keepends=True)
    want = GOLDEN[name].splitlines(keepends=True)
    assert len(got) == len(want)
    for line, expected in zip(got, want):
        if WALL_CLOCK.fullmatch(expected):
            assert WALL_CLOCK.fullmatch(line), line
        elif expected.startswith("upsampled,"):
            kind, step, *values = line.split(",")
            _, want_step, *want_values = expected.split(",")
            assert (kind, step, line[-1]) == ("upsampled", want_step, "\n")
            np.testing.assert_allclose([float(v) for v in values],
                                       [float(v) for v in want_values],
                                       rtol=1e-6, atol=1e-6)
        else:
            assert line == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        FIXTURE.write_text(json.dumps(record(Path(workdir)), indent=1) + "\n",
                           encoding="utf-8")

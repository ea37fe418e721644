"""Every corpus invocation prints the bytes and exits with the code it recorded."""

import os
import subprocess
import sys

import pytest

import golden

CORPUS = golden.load()


@pytest.mark.parametrize("entry", CORPUS, ids=[" ".join(e["argv"]) for e in CORPUS])
def test_corpus_entry_is_byte_identical(entry):
    assert golden.run(entry["argv"]) == entry


def test_corpus_entry_under_another_hash_seed():
    (entry,) = [e for e in CORPUS if e["argv"] == golden.SUBPROCESS_ARGV]
    env = dict(os.environ, PYTHONHASHSEED="12345")
    src = str(golden.HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "oppmix.cli", *entry["argv"]],
        capture_output=True,
        env=env,
        timeout=120,
    )
    got = {
        "argv": entry["argv"],
        "stdout_sha256": golden.sha256(proc.stdout.decode()),
        "stderr_sha256": golden.sha256(proc.stderr.decode()),
        "exit": proc.returncode,
    }
    assert got == entry

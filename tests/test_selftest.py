"""Criterion 12: one child interpreter with another hash seed, failing cleanly."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fslattice
from fslattice import selftest


@pytest.fixture
def empty_batch(monkeypatch):
    """Criteria 1-11 run as an empty batch in this process, so a test pays for no run."""
    monkeypatch.setattr(selftest, "run_criteria", lambda *args, **kwargs: [])
    return json.dumps(selftest.payload_of(0, []), sort_keys=True).encode()


class RecordingPopen:
    """Stands in for subprocess.Popen: records each call and answers with fixed bytes."""

    def __init__(self, out: bytes):
        self.out = out
        self.calls = []
        self.returncode = 0

    def __call__(self, argv, env, **kwargs):
        self.calls.append((argv, env))
        return self

    def communicate(self):
        return self.out, b""


@pytest.mark.parametrize("own", [None, "0", "1", "2", "random"])
def test_child_gets_another_hash_seed(monkeypatch, empty_batch, own):
    if own is None:
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    else:
        monkeypatch.setenv("PYTHONHASHSEED", own)
    popen = RecordingPopen(empty_batch)
    monkeypatch.setattr(subprocess, "Popen", popen)
    out = selftest.crit_determinism(0, 4096)
    assert out == {"passed": True, "details": {"bytes": len(empty_batch), "identical": True}}
    [(argv, env)] = popen.calls  # exactly one child
    assert argv[0] == sys.executable and argv[3:] == ["0", "4096", str(Path(fslattice.__file__).parent.parent)]
    assert env["PYTHONHASHSEED"] in {"1", "2"} and env["PYTHONHASHSEED"] != own


def test_child_bytes_that_differ_fail(monkeypatch, empty_batch):
    monkeypatch.setattr(subprocess, "Popen", RecordingPopen(empty_batch + b" "))
    out = selftest.crit_determinism(0, 4096)
    assert out == {"passed": False, "details": {"bytes": len(empty_batch), "identical": False}}


def test_child_that_cannot_start_fails(monkeypatch, tmp_path, empty_batch):
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))
    out = selftest.crit_determinism(0, 4096)
    assert out == {"passed": False, "details": {"bytes": len(empty_batch), "identical": False}}


def test_child_that_exits_nonzero_fails_quietly(monkeypatch, tmp_path, capfd, empty_batch):
    # the right bytes on stdout, but a failed exit
    (tmp_path / "payload").write_bytes(empty_batch)
    failing = tmp_path / "failing-python"
    failing.write_text(f"#!/bin/sh\ncat {tmp_path / 'payload'}\necho child trouble >&2\nexit 1\n")
    failing.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(failing))
    out = selftest.crit_determinism(0, 4096)
    assert out == {"passed": False, "details": {"bytes": len(empty_batch), "identical": False}}
    captured = capfd.readouterr()
    assert "child trouble" not in captured.out + captured.err


# run in a fresh interpreter against a copy of the package: the old check (two
# in-process runs of criteria 1-11) and then the new one, criterion 12
_PLANTED_SCRIPT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from fslattice import selftest
assert selftest.__file__.startswith(sys.argv[1])
cap = selftest.DEFAULT_CELL_CAP
old = selftest.payload_bytes(0, cap) == selftest.payload_bytes(0, cap)
print(json.dumps({"old": old, "new": selftest.crit_determinism(0, cap)}))
"""


def test_planted_hash_order_fails_the_check(tmp_path):
    src = tmp_path / "src"
    package = Path(fslattice.__file__).parent
    shutil.copytree(package, src / "fslattice", ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "fslattice" / "selftest.py"
    text = module.read_text()
    anchor = '"details": {"max_trm": max(table), "violations": violations}'
    assert text.count(anchor) == 1
    # set iteration order follows string hashing, so it differs between hash seeds
    planted = anchor[:-1] + ', "order": list({"a", "b", "c", "d", "e"})}'
    module.write_text(text.replace(anchor, planted))
    proc = subprocess.run(
        [sys.executable, "-c", _PLANTED_SCRIPT, str(src)],
        capture_output=True, env={**os.environ, "PYTHONHASHSEED": "1"}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["old"] is True
    assert result["new"]["passed"] is False
    assert set(result["new"]["details"]) == {"bytes", "identical"}

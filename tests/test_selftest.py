"""Criterion 12: one child interpreter with another hash seed, started before
criterion 1 and compared with this run's own criteria 1-11, failing cleanly."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fslattice
from fslattice import selftest
from fslattice.cli import main


def _passing(seed, cell_cap):
    return {"passed": True, "details": {}}


@pytest.fixture
def stub_batch(monkeypatch):
    """Criteria 1-11 are stubs that pass at once, so a test pays for no run;
    returns the bytes of their payload."""
    stubs = [(cid, name, _passing) for cid, name, _ in selftest.CRITERIA[:11]]
    monkeypatch.setattr(selftest, "CRITERIA", stubs + selftest.CRITERIA[11:])
    return selftest.payload_bytes(0, 4096)


class RecordingPopen:
    """Stands in for subprocess.Popen: records each call and answers with fixed bytes."""

    def __init__(self, out: bytes):
        self.out = out
        self.calls = []
        self.returncode = 0
        self.killed = self.reaped = False

    def __call__(self, argv, env, **kwargs):
        self.calls.append((argv, env))
        return self

    def kill(self):
        self.killed = True

    def communicate(self):
        self.reaped = True
        return self.out, b""


def determinism():
    """Criterion 12 alone at seed 0, as the dict its function returns."""
    result = selftest.run_criterion(12, 0, 4096)
    return {"passed": result.passed, "details": result.details}


@pytest.mark.parametrize("own", [None, "0", "1", "2", "random"])
def test_child_gets_another_hash_seed(monkeypatch, stub_batch, own):
    if own is None:
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    else:
        monkeypatch.setenv("PYTHONHASHSEED", own)
    popen = RecordingPopen(stub_batch)
    monkeypatch.setattr(subprocess, "Popen", popen)
    out = determinism()
    assert out == {"passed": True, "details": {"bytes": len(stub_batch), "identical": True}}
    [(argv, env)] = popen.calls  # exactly one child
    assert argv[0] == sys.executable and argv[3:] == ["0", "4096", str(Path(fslattice.__file__).parent.parent)]
    assert env["PYTHONHASHSEED"] in {"1", "2"} and env["PYTHONHASHSEED"] != own


def test_child_bytes_that_differ_fail(monkeypatch, stub_batch):
    monkeypatch.setattr(subprocess, "Popen", RecordingPopen(stub_batch + b" "))
    out = determinism()
    assert out == {"passed": False, "details": {"bytes": len(stub_batch), "identical": False}}


def test_child_that_cannot_start_fails(monkeypatch, tmp_path, stub_batch):
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))
    out = determinism()
    assert out == {"passed": False, "details": {"bytes": len(stub_batch), "identical": False}}


def test_child_that_exits_nonzero_fails_quietly(monkeypatch, tmp_path, capfd, stub_batch):
    # the right bytes on stdout, but a failed exit
    (tmp_path / "payload").write_bytes(stub_batch)
    failing = tmp_path / "failing-python"
    failing.write_text(f"#!/bin/sh\ncat {tmp_path / 'payload'}\necho child trouble >&2\nexit 1\n")
    failing.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(failing))
    out = determinism()
    assert out == {"passed": False, "details": {"bytes": len(stub_batch), "identical": False}}
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
new = selftest.run_criterion(12, 0, cap)
print(json.dumps({"old": old, "new": {"passed": new.passed, "details": new.details}}))
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


def test_full_run_starts_one_child_first_and_runs_each_criterion_once(monkeypatch, stub_batch):
    popen = RecordingPopen(stub_batch)
    monkeypatch.setattr(subprocess, "Popen", popen)
    calls = []

    def counted(cid):
        def fn(seed, cell_cap):
            calls.append((cid, len(popen.calls)))
            return _passing(seed, cell_cap)

        return fn

    counting = [(cid, name, counted(cid)) for cid, name, _ in selftest.CRITERIA[:11]]
    monkeypatch.setattr(selftest, "CRITERIA", counting + selftest.CRITERIA[11:])
    results = selftest.run_criteria(0, 4096)
    assert [r.id for r in results] == list(range(1, 13)) and all(r.passed for r in results)
    assert len(popen.calls) == 1 and popen.reaped and not popen.killed
    # each of criteria 1-11 once, in order, every one after the child started
    assert calls == [(cid, 1) for cid in range(1, 12)]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_criterion_that_raises_kills_and_reaps_the_child(monkeypatch, stub_batch, error):
    popen = RecordingPopen(stub_batch)
    monkeypatch.setattr(subprocess, "Popen", popen)

    def raising(seed, cell_cap):
        raise error("criterion trouble")

    criteria = list(selftest.CRITERIA)
    criteria[2] = (3, criteria[2][1], raising)
    monkeypatch.setattr(selftest, "CRITERIA", criteria)
    with pytest.raises(error):
        selftest.run_criteria(0, 4096, [3, 12])
    assert len(popen.calls) == 1 and popen.killed and popen.reaped


def test_no_child_without_criterion_12(monkeypatch, stub_batch):
    popen = RecordingPopen(stub_batch)
    monkeypatch.setattr(subprocess, "Popen", popen)
    assert [r.id for r in selftest.run_criteria(0, 4096, [4, 1])] == [4, 1]
    assert popen.calls == []


def test_unknown_criterion_starts_no_child(monkeypatch, stub_batch):
    popen = RecordingPopen(stub_batch)
    monkeypatch.setattr(subprocess, "Popen", popen)
    with pytest.raises(ValueError, match="unknown criterion 13"):
        selftest.run_criteria(0, 4096, [12, 13])
    assert popen.calls == []


def test_criterion_12_alone_passes_and_lists_only_itself(capsys):
    assert main(["selftest", "--criteria", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in payload["criteria"]] == [12]
    assert payload["all_passed"] is True


def test_interrupted_wait_kills_and_reaps_the_child(monkeypatch, stub_batch):
    class InterruptedPopen(RecordingPopen):
        def communicate(self):
            if not self.killed:
                raise KeyboardInterrupt
            return super().communicate()

    popen = InterruptedPopen(stub_batch)
    monkeypatch.setattr(subprocess, "Popen", popen)
    with pytest.raises(KeyboardInterrupt):
        selftest.run_criteria(0, 4096)
    assert len(popen.calls) == 1 and popen.killed and popen.reaped

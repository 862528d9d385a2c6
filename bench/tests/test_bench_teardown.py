"""Nothing may be left running, whatever happens to the workload."""

import os
import signal
import subprocess
import sys
import time

import pytest

from bench import OUT_DIR, ROOT
from bench.teardown import LeakAudit, Teardown
from bench.workloads import ServeTcp

SLEEPER = [sys.executable, "-c", "import time; time.sleep(600)"]
#: a child that leaves a grandchild behind in its own process group
FORKER = [
    sys.executable, "-c",
    "import subprocess, sys, time;"
    "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(600)']);"
    "time.sleep(600)",
]  # fmt: skip


def group_gone(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.fixture
def teardown():
    OUT_DIR.mkdir(exist_ok=True)
    teardown = Teardown()
    yield teardown
    teardown.close()


def start(teardown: Teardown, argv: list[str]):
    return teardown.child(argv, env=dict(os.environ), log_path=OUT_DIR / f"test-{os.getpid()}.log")


def test_no_process_left_when_the_workload_body_raises(teardown):
    audit = LeakAudit()
    child = start(teardown, FORKER)
    time.sleep(0.5)  # let the grandchild start
    with pytest.raises(RuntimeError):
        try:
            raise RuntimeError("injected failure in the workload body")
        finally:
            problems = teardown.close()
    assert problems == []
    assert group_gone(child.pgid)
    assert audit.offenders(teardown) == []


def test_child_that_ignores_sigint_is_killed(teardown):
    stubborn = [sys.executable, "-c",
                "import signal, time; signal.signal(signal.SIGINT, signal.SIG_IGN); time.sleep(600)"]  # fmt: skip
    child = start(teardown, stubborn)
    time.sleep(0.3)
    child.stop(grace_s=0.5)
    assert group_gone(child.pgid)


def test_teardown_of_a_child_that_is_already_dead(teardown):
    audit = LeakAudit()
    child = start(teardown, [sys.executable, "-c", "pass"])
    child.process.wait(timeout=30)
    assert teardown.close() == []
    assert group_gone(child.pgid)
    assert audit.offenders(teardown) == []


def test_audit_names_what_was_left_behind(teardown):
    audit = LeakAudit()
    stray = OUT_DIR / f"stray-{os.getpid()}.tmp"
    stray.write_text("x")
    child = subprocess.Popen(SLEEPER)
    try:
        offenders = audit.offenders(teardown)
        assert any(str(stray) in line for line in offenders)
        assert any("child" in line for line in offenders)
    finally:
        stray.unlink()
        child.kill()
        child.wait()
    assert audit.offenders(teardown) == []


def test_serve_tcp_leaves_nothing_when_it_fails_after_setup(teardown):
    audit = LeakAudit()
    workload = ServeTcp(1, teardown)
    with pytest.raises(RuntimeError):
        try:
            workload.setup()
            raise RuntimeError("injected failure after the server is up")
        finally:
            teardown.close()
    assert group_gone(workload.server.pgid)
    assert audit.offenders(teardown) == []


def test_sigterm_mid_run_still_tears_down():
    argv = [sys.executable, "-m", "bench", "measure", "--workload", "serve_tcp", "--seconds", "30"]
    before = LeakAudit()
    run = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and not list(OUT_DIR.glob("serve-*.log")):
        time.sleep(0.1)
    time.sleep(2.0)  # the server child is up (or starting): interrupt now
    run.send_signal(signal.SIGTERM)
    assert run.wait(timeout=60) == 128 + signal.SIGTERM
    served = subprocess.run(["pgrep", "-f", "repro serve --path"], capture_output=True, text=True)
    assert served.stdout.strip() == ""
    assert before.offenders(Teardown()) == []

"""Kill/resume property: a SIGKILLed campaign resumes byte-identically.

The strongest durability claim the checkpoint layer makes: kill the
campaign process with ``SIGKILL`` (no cleanup handlers, no atexit) at a
cell boundary, resume from the checkpoint directory, and the final CSV
is **byte-identical** to an uninterrupted run's -- for serial and
parallel execution, at every kill point.

The child process re-imports this module and builds the campaign from
:func:`crash_campaign`, so the killed run and the resume see exactly the
same grid and configuration (the manifest fingerprint enforces it).
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.campaign import Campaign
from repro.sim.testbed import WorkloadSpec

REPO_ROOT = Path(__file__).resolve().parent.parent


def crash_campaign() -> Campaign:
    """The fixed campaign both the killed child and the resume build."""
    return Campaign(
        ratios=(0.13, 0.17, 0.25),
        workloads={
            "low": WorkloadSpec(target_utilization=0.10, modulation_sigma=0.0)
        },
        seeds=(3,),
        n_servers=40,
        duration_hours=0.2,
        warmup_hours=0.05,
    )


def run_and_kill(checkpoint_dir: str, kill_after: int, parallel: bool) -> None:
    """Child entry point: run checkpointed, SIGKILL self at a boundary.

    ``on_cell`` fires after the cell's checkpoint file is durably on
    disk, so the kill lands exactly at a cell boundary -- the crash
    window the checkpoint protocol is designed around.
    """
    campaign = crash_campaign()
    finished = [0]

    def boundary(cell, row):
        finished[0] += 1
        if finished[0] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    if parallel:
        campaign.run_parallel(
            max_workers=2, on_cell=boundary, checkpoint_dir=checkpoint_dir
        )
    else:
        campaign.run(on_cell=boundary, checkpoint_dir=checkpoint_dir)


def _reference_csv(tmp_path) -> bytes:
    path = tmp_path / "reference.csv"
    crash_campaign().run().save_csv(path)
    return path.read_bytes()


def _run_python(code: str, log_path: Path) -> int:
    """Run ``code`` in a child interpreter; return its exit code.

    Output goes to a file, not a pipe: after the SIGKILL, orphaned pool
    workers still hold the child's stdout/stderr, and waiting for pipe
    EOF (as ``capture_output`` does) would block on them instead of on
    the child we actually killed. The child leads its own process group,
    which is killed once the child is gone, so those orphaned workers do
    not outlive the test.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + str(REPO_ROOT)
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=env,
            cwd=REPO_ROOT,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=log,
            start_new_session=True,
        )
        try:
            return proc.wait(timeout=600)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # no process of the group is left
            proc.wait()


def _kill_child(checkpoint_dir, kill_after: int, parallel: bool) -> None:
    code = (
        "from tests.test_crash_resume import run_and_kill; "
        f"run_and_kill({str(checkpoint_dir)!r}, {kill_after}, {parallel})"
    )
    log_path = Path(checkpoint_dir).parent / "child.log"
    returncode = _run_python(code, log_path)
    assert returncode == -signal.SIGKILL, (
        f"child exited {returncode} instead of being SIGKILLed:\n"
        f"{log_path.read_text()}"
    )


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
@pytest.mark.parametrize("kill_after", [1, 2])
def test_sigkilled_campaign_resumes_byte_identical(
    tmp_path, parallel, kill_after
):
    reference = _reference_csv(tmp_path)
    checkpoint_dir = tmp_path / "ck"

    _kill_child(checkpoint_dir, kill_after, parallel)
    cell_files = list(checkpoint_dir.glob("cell_*.json"))
    assert (checkpoint_dir / "manifest.json").exists()
    assert cell_files, "child died before recording any cell"
    assert len(cell_files) < len(crash_campaign().cells), (
        "child finished everything; the kill landed too late to test resume"
    )

    campaign = crash_campaign()
    if parallel:
        resumed = campaign.run_parallel(
            max_workers=2, checkpoint_dir=checkpoint_dir, resume=True
        )
    else:
        resumed = campaign.run(checkpoint_dir=checkpoint_dir, resume=True)
    out = tmp_path / "resumed.csv"
    resumed.save_csv(out)
    assert out.read_bytes() == reference


def test_double_kill_then_resume(tmp_path):
    """Two crashes at different boundaries, then one resume: still exact."""
    reference = _reference_csv(tmp_path)
    checkpoint_dir = tmp_path / "ck"
    _kill_child(checkpoint_dir, 1, False)

    # Second attempt resumes, progresses one more cell, dies again.
    # on_cell only fires for freshly-run cells, so kill_after=1 here
    # lands on the first *new* cell of the resumed run.
    code = (
        "from tests.test_crash_resume import crash_campaign\n"
        "import os, signal\n"
        "campaign = crash_campaign()\n"
        "def boundary(cell, row):\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        f"campaign.run(on_cell=boundary, checkpoint_dir={str(checkpoint_dir)!r}, "
        "resume=True)"
    )
    log_path = tmp_path / "second-child.log"
    returncode = _run_python(code, log_path)
    assert returncode == -signal.SIGKILL, log_path.read_text()

    resumed = crash_campaign().run(checkpoint_dir=checkpoint_dir, resume=True)
    out = tmp_path / "resumed.csv"
    resumed.save_csv(out)
    assert out.read_bytes() == reference

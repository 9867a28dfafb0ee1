"""Child processes of the benchmark.

``spawn`` runs a child to exit and times it from outside.
``SetupSampler`` takes the ``import brocard`` samples of ``setup_s``
spread over a run instead of back to back at its start: the speed of a
shared machine moves by 10-60% between spells of seconds to minutes, and
samples taken at one moment fall in one spell.

Spawned times are wall times, not scaled to a reference speed.  A bare
``python -c pass`` spawned next to each sample, tried as such a
reference, slowed by up to 40% in a spell in which ``import brocard``
did not, and moved ``setup_s`` by 23% between two sets of runs of the
same code.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYTHON = sys.executable

SPAWN_TIMEOUT_S = 60.0  # keeps a hung child inside the run's time limit

SETUP_SAMPLES = 15
IMPORT_BROCARD = [PYTHON, "-c", "import brocard"]


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list[str], timeout_s: float = SPAWN_TIMEOUT_S) -> tuple[int, str, str, float, int]:
    """Run a child to exit: (exit code, stdout, stderr, wall s, peak RSS KiB).

    The child finds the checkout's ``src`` on its path.  A child still
    running after ``timeout_s`` is killed.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout_s - perf_counter()
            if remaining <= 0.0:
                proc.kill()
                remaining = None
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[s]).decode(errors="replace") for s in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, elapsed, usage.ru_maxrss


class SetupSampler:
    """``SETUP_SAMPLES`` ``import brocard`` spawns spread over a run.

    Call ``due`` between ops with the op time so far, out of the run's
    ``seconds``, and ``finish`` after the last op.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.times: list[float] = []

    def due(self, op_time: float) -> None:
        while (
            len(self.times) < SETUP_SAMPLES
            and op_time >= len(self.times) * self.seconds / SETUP_SAMPLES
        ):
            self._sample()

    def finish(self) -> None:
        while len(self.times) < SETUP_SAMPLES:
            self._sample()

    def _sample(self) -> None:
        code, _, err, elapsed, _ = spawn(IMPORT_BROCARD)
        if code != 0:
            raise BenchError(f"import brocard exited {code}: {err.strip()[-2000:]}")
        self.times.append(elapsed)

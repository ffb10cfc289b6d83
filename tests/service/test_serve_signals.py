"""``annoda serve`` stops cleanly on SIGTERM, and on SIGINT even when
it was started with SIGINT ignored.

A process spawned from a background job of a non-interactive shell
inherits an ignored SIGINT, and Python then installs no
``KeyboardInterrupt`` handler; the server must still drain and report
``annoda service stopped`` with exit status 0 on either signal.
"""

import os
import select
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Seconds the child may take to start listening, and to stop.
START_TIMEOUT = 60
STOP_TIMEOUT = 10


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _stop_with(signum, preexec_fn=None):
    """Spawn ``serve``, send ``signum`` once it listens, and return
    its exit status and everything it printed."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    process = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro",
            "--loci", "60", "--go-terms", "40", "--omim-entries", "25",
            "serve", "--port", "0", "--service-workers", "1",
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=preexec_fn,
    )
    try:
        ready, _, _ = select.select([process.stdout], [], [], START_TIMEOUT)
        first = process.stdout.readline() if ready else ""
        assert "listening on" in first, first
        process.send_signal(signum)
        rest, errors = process.communicate(timeout=STOP_TIMEOUT)
        return process.returncode, first + rest, errors
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


class TestServeStopSignals:
    def test_sigint_stops_a_server_started_with_sigint_ignored(self):
        status, output, errors = _stop_with(
            signal.SIGINT, preexec_fn=_ignore_sigint
        )
        assert status == 0, errors
        assert "annoda service stopped" in output

    def test_sigterm_stops_cleanly(self):
        status, output, errors = _stop_with(signal.SIGTERM)
        assert status == 0, errors
        assert "annoda service stopped" in output

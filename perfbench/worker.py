"""Worker child: imports ``rscore.cli`` once, then runs CLI commands on request.

Usage: ``python3 worker.py <src-dir>``. Requests and replies are JSON lines
on stdin and stdout. A request ``{"argv": [...], "trace": bool,
"want_stdout": bool}`` runs ``rscore.cli.run(argv)`` in-process with stdout
captured. The reply holds the exit code, the wall seconds and the output's
sha256, plus the output itself if asked for and the spans if traced. A
request ``{"exit": true}`` replies with the worker's peak RSS and ends the
worker.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer


def run_command(cli, argv: list[str], trace: bool, want_stdout: bool) -> dict:
    tracer = Tracer() if trace else None
    captured = io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.install()
    clock = tracer.clock if tracer is not None else time.perf_counter
    try:
        start = clock()
        wall_start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            try:
                code = cli.run(argv)
            except Exception:  # the real CLI would die with a traceback: exit 1
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - wall_start
        command_s = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    data = captured.getvalue().encode("utf-8")
    reply = {
        "code": code,
        "wall": wall,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    if want_stdout:
        reply["stdout"] = captured.getvalue()
    if tracer is not None:
        reply["trace"] = {"command_s": command_s, "metrics": tracer.report(command_s),
                          "errors": tracer.errors}
        reply["trace"]["metrics"]["cli.stdout_bytes"] = len(data)
    return reply


def main(src: str) -> int:
    # Keep the protocol on a private copy of stdout; stray writes to fd 1 go to stderr.
    protocol = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    start = time.perf_counter()
    import rscore.cli as cli

    import_s = time.perf_counter() - start
    if src_dir not in Path(cli.__file__).resolve().parents:
        print(f"worker: rscore imported from {cli.__file__}, not {src_dir}", file=sys.stderr)
        return 2

    def send(payload: dict) -> None:
        protocol.write(json.dumps(payload) + "\n")
        protocol.flush()

    send({"ready": True, "import_s": import_s})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            send({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
        send(run_command(cli, request["argv"], request.get("trace", False),
                         request.get("want_stdout", False)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Run ``repro serve`` with every thread profiled; dump merged stats on exit.

``python -m cProfile`` profiles only the main thread, but the sweep
service simulates cold points on ``asyncio.to_thread`` workers.  This
bootstrap gives each thread its own ``cProfile.Profile`` for the life of
its ``run()`` and, once the server has stopped (SIGINT), merges them with
the main thread's profile into one ``pstats`` file::

    python3 hbmbench/serve_profiled.py OUT.prof serve --port 0 ...
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import threading
from typing import List


def main(argv: List[str]) -> int:
    out, cli = argv[0], argv[1:]
    finished: List[cProfile.Profile] = []
    lock = threading.Lock()
    thread_run = threading.Thread.run

    def profiled_run(self: threading.Thread) -> None:
        prof = cProfile.Profile()
        prof.enable()
        try:
            thread_run(self)
        finally:
            prof.disable()
            with lock:
                finished.append(prof)

    threading.Thread.run = profiled_run  # type: ignore[method-assign]
    from repro.experiments.runner import main as repro_main

    prof = cProfile.Profile()
    prof.enable()
    try:
        return repro_main(cli)
    finally:
        prof.disable()
        stats = pstats.Stats(prof)
        with lock:
            for p in finished:
                stats.add(p)
        stats.dump_stats(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

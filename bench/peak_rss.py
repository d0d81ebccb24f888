"""Run ``python -m ffemu.cli`` in this process and record its peak memory.

    python3 bench/peak_rss.py PEAK_FILE CLI_ARG...

runs the CLI exactly as ``python3 -m ffemu.cli CLI_ARG...`` would, with the
package on ``PYTHONPATH``, and on the way out writes the process's peak
resident memory in kB (``VmHWM``) to ``PEAK_FILE``. The exit code is the
CLI's.

``getrusage`` cannot give this figure: a child's ``ru_maxrss`` also counts
the memory of the benchmark process it was forked from, before ``exec``,
and that process holds more than a small CLI run does. ``VmHWM`` belongs
to the address space the CLI started with.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path


def peak_kib() -> int:
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> None:
    peak_file, sys.argv[1:] = argv[0], argv[1:]
    try:
        runpy.run_module("ffemu.cli", run_name="__main__", alter_sys=True)
    finally:
        Path(peak_file).write_text(str(peak_kib()), encoding="ascii")


if __name__ == "__main__":
    main(sys.argv[1:])

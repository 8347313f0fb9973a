"""Loaded at start-up by every CLI process of `cli_roundtrip` (its directory
is on their PYTHONPATH).  At exit it writes the process's peak resident set
size as the last line of standard error:

    perfbench-peak-rss-kb 21712

The peak is read from `/proc/self/status` (VmHWM) while the process still
lives.  `ru_maxrss` of a finished child cannot be used: the kernel starts it
at the peak of the benchmark process that spawned the child.
"""

import atexit
import sys


def _report_peak_rss() -> None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    sys.stderr.write(f"\nperfbench-peak-rss-kb {line.split()[1]}\n")
    except OSError:
        pass


atexit.register(_report_peak_rss)

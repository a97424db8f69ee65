"""One sbpkit CLI command, as ``cli_small`` runs it.

    python3 perfbench/cli_child.py REPORT_PATH TRACE COMMAND [ARGS...]

Behaves like ``python3 -m sbpkit.cli COMMAND [ARGS...]`` (same output and
exit status) and writes a report to REPORT_PATH: the peak resident memory
of this process (``VmHWM``, which covers only the memory map made at exec,
not that of the process that started it), and the command's spans.
``cli.import`` covers ``import sbpkit.cli`` and ``cli.main`` the call to
``main(argv)``.  With TRACE 1 every traced function inside it is a child
span; with TRACE 0 nothing is wrapped.
"""

import sys
import time

import spans


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))


def main() -> int:
    path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = spans.Tracer()
    start = time.perf_counter()
    import sbpkit.cli

    tracer.record("cli.import", start, time.perf_counter())
    if trace:
        tracer.install()
    with tracer.root("cli.main"):
        status = sbpkit.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(path, peak_rss_kb=peak_rss_kb())
    return status


if __name__ == "__main__":
    raise SystemExit(main())

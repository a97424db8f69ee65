"""Print the peak resident memory of each ``cli_small`` command, sorted.

    python3 tools/peak_rss.py SRC_DIR

``SRC_DIR`` is the ``src`` directory of an sbpkit checkout.  Each of the 60
seed-7 ``cli_small`` commands runs once, one child process each, through
``perfbench/cli_child.py`` as the benchmark runs it, and reports its own
``VmHWM``.  One line per command gives that peak in MB and the command's
argv, smallest first, so the last line is the command that sets the
workload's ``peak_rss_mb``.  The commands come from this checkout's
``perfbench/``, which is only read.  BLAS runs on one thread, as in the
benchmark, and the temporary directory's path is shown as ``WORK``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
CLI_SEED = 7


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(sys.argv[1])
    if not os.path.isfile(os.path.join(src, "sbpkit", "cli.py")):
        print(f"no sbpkit package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [PERFBENCH]
    import run
    import worker

    env = dict(os.environ, PYTHONPATH=src, **run.BLAS_PINS)
    peaks = []
    with tempfile.TemporaryDirectory() as work:
        cli = worker.CliSmall(CLI_SEED, work)
        cli.prepare(setup_only=False)
        report = os.path.join(work, "child.json")
        for _, argv, *_ in (command for task in cli.round() for command in task):
            subprocess.run([sys.executable, os.path.join(PERFBENCH, "cli_child.py"), report,
                            "0", *argv], env=env, cwd=work, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, check=False)
            with open(report, encoding="utf-8") as fh:
                kb = json.load(fh)["peak_rss_kb"]
            os.remove(report)
            peaks.append((kb, " ".join(argv).replace(work, "WORK")))
    for kb, command in sorted(peaks):
        print(f"{kb / 1024.0:8.2f} MB  {command}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Print SHA-256 digests of the bytes sbpkit writes for the benchmark's inputs.

    python3 tools/doc_digest.py SRC_DIR

``SRC_DIR`` is the ``src`` directory of an sbpkit checkout.  The total digest
covers, in this order:

- for seeds 7 and 947, the verification and spectrum documents of every
  ``diagnose_fd`` input, and the report and saved operator of every
  ``repair_planted`` input, made in this process as the benchmark makes them;
- the argv, exit status, stdout and written file of each of the 60 seed-7
  ``cli_small`` commands, one ``python3 -m sbpkit.cli`` child process each;
- the argv, exit status and stdout of each command in ``EXTRA_COMMANDS``:
  the text rendering of every subcommand that has one, a certification of
  degrees 1..48, an operator whose eigenvalue verdict is decided by the
  band (generated, verified and certified), and two empty operator
  options, whose stderr adds only whether it starts with
  ``error: ParameterError:``.

One line per section (``diagnose_fd``, ``repair_planted``, ``cli_small``,
``extra_commands``) gives the section's name and the digest of its own
bytes; the last line is the total.  Two checkouts that print the same total
write the same bytes on all of these, and a section digest shows which part
changed.  The inputs and commands come from this checkout's ``perfbench/``,
which is only read.  BLAS runs on one thread, as in the benchmark, and the
temporary directory's path is replaced by ``WORK`` before hashing.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SEEDS = (7, 947)
CLI_SEED = 7
#: Gauss-Legendre nodes, n = 12, on [100, 101]: D and H built on these
#: rounded nodes miss the SBP identity by more than rounding, so verify and
#: certification take the band route.
GAUSS12 = ["--family", "explicit", "--interval", "100", "101", "--nodes",
           "100.00790847264071,100.04120080038851,100.09921095463335,100.17882533027984,"
           "100.27575362448178,100.38477084202243,100.5,100.61522915797757,"
           "100.72424637551822,100.82117466972016,100.90078904536665,100.95879919961149,"
           "100.99209152735929"]
EXTRA_COMMANDS = (
    ["verify", "--builtin", "classical_fd_16", "--format", "text"],
    ["verify", "--builtin", "counterexample", "--format", "text"],
    ["spectrum", "--builtin", "counterexample", "--format", "text"],
    ["repair", "--builtin", "counterexample", "--format", "text"],
    ["solve", "--builtin", "classical_fd_8", "--f", "sin", "--u0", "0.5", "--format", "text"],
    ["converge", "--grids", "8,16,32", "--function", "exp", "--format", "text"],
    ["pseudospectral", "--family", "legendre_gauss_lobatto", "--n", "6", "--certify",
     "--format", "text"],
    ["pseudospectral", "--family", "chebyshev_gauss_lobatto", "--n", "48", "--interval",
     "-1000", "1000", "--certify", "--format", "text"],
    ["pseudospectral", *GAUSS12, "--output", "gauss12.json"],
    ["verify", "--input", "gauss12.json", "--require-eigenvalue-property", "--format", "text"],
    ["pseudospectral", *GAUSS12, "--certify"],
    ["verify", "--builtin", ""],
    ["verify", "--input", ""],
)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(sys.argv[1])
    sys.path[:0] = [src, PERFBENCH]
    import run

    os.environ.update(run.BLAS_PINS)  # before numpy starts its BLAS
    import sbpkit
    import worker

    if not os.path.abspath(sbpkit.__file__).startswith(src + os.sep):
        print(f"sbpkit imported from {sbpkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    digest = hashlib.sha256()
    sections = {}
    with tempfile.TemporaryDirectory() as work:

        def add(section: str, *parts) -> None:
            part_digest = sections.setdefault(section, hashlib.sha256())
            for part in parts:
                data = str(part).replace(work, "WORK").encode()
                framed = len(data).to_bytes(8, "little") + data
                digest.update(framed)
                part_digest.update(framed)

        def read(path: str) -> str:
            with open(path, encoding="utf-8") as fh:
                return fh.read()

        for seed in SEEDS:
            diagnose = worker.DiagnoseFd(seed, work)
            diagnose.prepare(setup_only=False)
            for item in diagnose.items:
                add("diagnose_fd", *diagnose.run(item))
            repair = worker.RepairPlanted(seed, work)
            repair.prepare(setup_only=False)
            for item in repair.items:
                add("repair_planted", repair.run(item)[0], read(item[-1]))

        cli = worker.CliSmall(CLI_SEED, work)
        cli.prepare(setup_only=False)
        env = dict(os.environ, PYTHONPATH=src)

        def sbpkit_cli(argv: list[str]) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, "-m", "sbpkit.cli", *argv], env=env,
                                  cwd=work, capture_output=True, text=True, check=False)

        for kind, argv, *spec in (command for task in cli.round() for command in task):
            proc = sbpkit_cli(argv)
            written = read(spec[0]["path"]) if kind == "generate" else ""
            add("cli_small", argv, proc.returncode, proc.stdout, written)
        for argv in EXTRA_COMMANDS:
            proc = sbpkit_cli(argv)
            add("extra_commands", argv, proc.returncode, proc.stdout,
                proc.stderr.startswith("error: ParameterError:"))
    for name, part_digest in sections.items():
        print(name, part_digest.hexdigest())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

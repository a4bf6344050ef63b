"""A digest of the engine's verdicts on the benchmark's classify inputs.

    python tests/verdict_digest.py [--seeds 1 2 3 4 5] [--rounds 0 1 2 3]

writes every input that ``bench/gen.py``'s ``generate(workload, seed,
round)`` produces for the corpus, refute and confirm workloads, over the
given seeds and rounds, to a temporary directory, runs ``rigidity classify
DIR --json`` on it in this process (through ``rigidity.cli.main``, from
inside the directory, so no path in the output depends on where it is), and
prints the input count, the exit code and the sha256 of the captured standard
output and standard error.  Two trees that print the same lines give the same
verdicts, reasons and witnesses on every input.  The standard library only;
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]

import gen  # noqa: E402
from rigidity.cli import main as rigidity_main  # noqa: E402

WORKLOADS = ("corpus", "refute", "confirm")


def write_inputs(directory: Path, seeds, rounds) -> int:
    """One ``.grp`` file per generated case; returns how many were written."""
    count = 0
    for workload in WORKLOADS:
        for seed in seeds:
            for round_no in rounds:
                for i, case in enumerate(gen.generate(workload, seed, round_no)):
                    name = f"{workload}-{seed}-{round_no}-{i:03d}-{case.slot}.grp"
                    (directory / name).write_text(case.text, encoding="utf-8")
                    count += 1
    return count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--rounds", type=int, nargs="+", default=[0, 1, 2, 3])
    args = ap.parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        count = write_inputs(Path(tmp), args.seeds, args.rounds)
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = rigidity_main(["classify", ".", "--json"])
        finally:
            os.chdir(here)
    print(f"inputs: {count}")
    print(f"exit code: {code}")
    for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        print(f"{name} sha256: {hashlib.sha256(text.encode('utf-8')).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The `voterlim` process: one entry for the console script and for
`python -m voterlim.cli`.

It imports nothing of voterlim or numpy itself, so that it can set up the
process before numpy loads:

- OpenBLAS runs one thread unless the caller set `OPENBLAS_NUM_THREADS`.
  OpenBLAS reads it once, when numpy loads.  Its default worker threads
  compete with the main thread for the CPUs, at numpy's load and in the
  Monte Carlo trials' forked workers, and the CLI's BLAS calls are too
  small to gain from them.
- The process leaves by `os._exit` once `cli.main` returns and stdout and
  stderr are flushed, so no interpreter teardown runs, nor any `atexit`
  handler.  Every artifact is closed by then: each is written in a `with`
  block.

Importing `voterlim.cli` from Python does neither: only `run` does.
"""

import os
import sys


def run() -> None:
    """Run the CLI on `sys.argv` and end the process with its exit code."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)

"""``python -m qhog`` and the ``qhog`` console script.

A CLI process makes no BLAS call larger than 4x4, so unless the caller
sets OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, it runs
OpenBLAS on one thread instead of starting a pool that idles.  The
variable must be set before numpy is imported, hence here and not in
``qhog.cli``.

Both entry points call ``run``, which leaves through ``os._exit`` once
``main`` has returned and stdout and stderr are flushed.  The
interpreter's teardown would free numpy's import-time objects and run
the final garbage collections over them, 13-17 ms per process on a
2-vCPU host, and a command leaves it nothing else to do: ``--out``
files and the pair-reduction threads are closed by their ``with``
blocks.  An exception out of ``main`` still ends in the normal exit and
its traceback.  Tools that rely on ``atexit`` (coverage, profilers)
should call ``qhog.cli.main`` in process.
"""

import os
import sys

if not any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                         "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    from .cli import main as cli_main

    return cli_main(argv)


def run() -> None:
    """``main()`` on ``sys.argv``, then ``os._exit(code)`` once stdout and stderr are flushed."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # as main exits for an unwritable stdout
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()

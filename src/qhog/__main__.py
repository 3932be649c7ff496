"""``python -m qhog`` and the ``qhog`` console script.

A CLI process makes no BLAS call larger than 4x4, so unless the caller
sets OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, it runs
OpenBLAS on one thread instead of starting a pool that idles.  The
variable must be set before numpy is imported, hence here and not in
``qhog.cli``.
"""

import os

if not any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                         "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())

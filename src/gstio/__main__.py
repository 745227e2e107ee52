"""The ``gstio`` command: the console script and ``python -m gstio`` both run :func:`main`.

:func:`main` runs :func:`gstio.cli.main`, then calls :func:`gc.freeze`, which
moves every object alive into the collector's permanent generation. The
interpreter's final collection at exit then has nothing to walk, where it
would walk every object the imports left, numpy's included: about 9 ms of
each command on a 2-vCPU Xeon. The process is ending, and the operating
system takes its pages back all the same. Output, stdio flushing, atexit
handlers and the exit code do not change.

The freeze is never in :func:`gstio.cli.main`: called in process, by tests
or a long-lived program, it would keep every object alive at the call out of
every later collection, for the rest of that process.
"""

import gc

from . import cli


def main() -> int:
    """Run the command line on ``sys.argv`` and return its exit code, with the collector frozen."""
    code = cli.main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Print the seconds a fresh interpreter spends before ealie's decomposition starts.

Usage: python3 setup_probe.py SRC_DIR CLI_ARGS...

Timed: ``import ealie`` and its CLI, argument parsing, and building the
instance's algebra object, up to the CLI's call of ``decompose_window``,
which is replaced by a stop so nothing after it runs.
"""

import sys
import time


class _Reached(Exception):
    pass


def main(src, argv):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import ealie  # noqa: F401
    from ealie import cli

    def stop(alg, w):
        raise _Reached(time.perf_counter() - t0)

    cli.decompose_window = stop
    try:
        cli.main(argv)
    except _Reached as reached:
        print(reached.args[0])
        return 0
    print("the CLI returned without calling decompose_window", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

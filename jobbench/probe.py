"""Set-up probe: build one workload's service in a fresh interpreter.

Usage: ``python3 jobbench/probe.py <workload> <workdir>``.  Builds the
service stack exactly as the timed run does (cache open, pool prewarm,
server bind) and loads the native kernel, prints ``ready``, then waits
for stdin to close, closes everything and exits.  ``run.py`` times the
interval from starting the interpreter to reading ``ready``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(name: str, workdir: str) -> int:
    from repro.mapping.routing._astar_native import warm_kernel

    from jobbench.workloads import WORKLOADS

    stack = WORKLOADS[name](workdir)
    stack.open()
    try:
        available = warm_kernel()
        print("ready" if available else "no-kernel", flush=True)
        sys.stdin.read()
    finally:
        stack.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

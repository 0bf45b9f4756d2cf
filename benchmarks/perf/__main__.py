"""Entry point: ``python -m benchmarks.perf`` from the repository root."""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(_SRC, "repro", "cli.py")):
        print(
            f"benchmarks.perf: no program source at {_SRC}/repro; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path[:0] = [_SRC, _ROOT]

    from benchmarks.perf.run import main

    sys.exit(main())

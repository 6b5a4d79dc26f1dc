"""Time one set-up in a fresh interpreter and print the seconds taken.

Set-up is importing fkbench (which brings numpy and scipy) and its CLI, and
building one zoo model:

    python3 benchmarks/setup_probe.py ring_walk '{"d": 16, "horizon": 300}'
"""

import json
import sys
import time
from pathlib import Path


def main(zoo_name: str, params: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import fkbench.cli  # noqa: F401  (imports the whole package)
    from fkbench import zoo

    zoo.build(zoo_name, **json.loads(params))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:])

"""Server launcher for the benchmark: one ``RemoteServer`` process.

Builds the server through its public API on the deterministic untrained
``resnet20`` (``_demo_victim("resnet20", 0.25, 0)``, boundary 3.5), warms
the pools of the *named* sessions it is given, and only then prints one
JSON line ``{"port": P}`` on stdout. ``c2pi serve --warm`` is not used
because it warms only the anonymous pool, whose bytes depend on how
requests interleave.

The process serves until its stdin closes, then stops the server, prints
the server's final ``metrics()`` counters as one JSON line and exits.

    python3 perfbench/launcher.py --seed 7 --warm-session s0 --warm-bundles 130
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.remote import RemoteServer, _demo_victim  # noqa: E402

ARCH, WIDTH, MODEL_SEED, BOUNDARY = "resnet20", 0.25, 0, 3.5
WORKERS = 2  # session workers (the benchmark keeps one request in flight)


def build_model():
    """The benchmark's model: untrained, so every process rebuilds it."""
    return _demo_victim(ARCH, WIDTH, MODEL_SEED)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="the server's base dealer seed")
    parser.add_argument("--warm-session", default=None,
                        help="named session whose batch-1 pool is warmed")
    parser.add_argument("--warm-bundles", type=int, default=0,
                        help="bundles warmed for that session")
    args = parser.parse_args(argv)

    server = RemoteServer(build_model(), BOUNDARY, seed=args.seed,
                          workers=WORKERS, max_sessions=2 * WORKERS)
    if args.warm_session is not None:
        server.warm(1, bundles=args.warm_bundles, session=args.warm_session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.port}), flush=True)
    try:
        sys.stdin.read()  # serve until run.py closes our stdin
    finally:
        server.stop()
        thread.join(timeout=10.0)
        counters = {
            key: value
            for key, value in server.metrics().items()
            if isinstance(value, int)
        }
        print(json.dumps(counters), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Reference logits: a serial replay of the benchmark's session streams.

Reads the streams from an ``.npz`` (``server_seed``, per-stream ``keys``
and ``client_seeds``, ``images`` and each image's ``stream`` index),
replays every stream in order against a fresh in-process
``RemoteServer`` with the same base seed, and writes every reply's
logits, in image order, to the output ``.npy``. ``run.py`` starts it as
a subprocess, so the replay runs off its own interpreter lock.

    python3 perfbench/replay.py streams.npz logits.npy
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.remote import RemoteClient, RemoteServer  # noqa: E402

from launcher import BOUNDARY, build_model  # noqa: E402


def replay(server_seed: int, keys, client_seeds, images, stream) -> np.ndarray:
    """Logits of every image, each stream replayed serially on its own
    session, streams one after another."""
    server = RemoteServer(build_model(), BOUNDARY, seed=server_seed, workers=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    logits = [None] * len(images)
    try:
        for index, (key, client_seed) in enumerate(zip(keys, client_seeds)):
            client = RemoteClient("127.0.0.1", server.port,
                                  seed=int(client_seed), session=str(key),
                                  timeout=60.0)
            for position in np.flatnonzero(stream == index):
                logits[position] = client.infer(images[position]).logits
            client.close()
    finally:
        server.stop()
        thread.join(timeout=10.0)
    return np.stack(logits)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("streams")
    parser.add_argument("output")
    args = parser.parse_args(argv)
    with np.load(args.streams) as data:
        logits = replay(int(data["server_seed"]), data["keys"],
                        data["client_seeds"], data["images"], data["stream"])
    np.save(args.output, logits)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

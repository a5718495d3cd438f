"""``python -m repro.service`` — run a standalone BO service.

Prints one JSON line ``{"host": ..., "port": ..., "root": ...}`` once the
socket is bound (so wrapper scripts and tests can read the real port when
``--port 0`` asked for an ephemeral one), then serves until interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.farm import EvaluationFarm
from repro.service.server import StudyServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve a directory of BO studies over HTTP.",
    )
    parser.add_argument(
        "--root",
        required=True,
        help="store directory for study checkpoints (created if missing)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; the bound port is printed)",
    )
    parser.add_argument(
        "--max-resident",
        type=int,
        default=16,
        help="studies kept in memory at once (LRU-evicted beyond this)",
    )
    parser.add_argument(
        "--lease-s",
        type=float,
        default=None,
        help="default trial lease in seconds (unset = no leases)",
    )
    parser.add_argument(
        "--reap-interval-s",
        type=float,
        default=1.0,
        help="seconds between expired-lease sweeps",
    )
    parser.add_argument(
        "--farm-workers",
        type=int,
        default=None,
        help=(
            "enable the server-side evaluation farm with this many "
            "async-thread workers (unset = the server never evaluates)"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log each request to stderr",
    )
    args = parser.parse_args(argv)

    farm = None
    if args.farm_workers is not None:
        farm = EvaluationFarm("async-thread", n_workers=args.farm_workers)
    server = StudyServer(
        args.root,
        host=args.host,
        port=args.port,
        max_resident=args.max_resident,
        default_lease_s=args.lease_s,
        farm=farm,
        reap_interval_s=args.reap_interval_s,
        quiet=not args.verbose,
    )
    host, port = server.address
    print(json.dumps({"host": host, "port": port, "root": args.root}), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if farm is not None:
            farm.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One set-up of a workload, timed in a fresh interpreter.

Prints one JSON object: the time to import procharness, to parse the
workload's configs and build a ``HarnessEnv`` for each, and to start the
three tool servers until each has answered a first ``tools/list``. The
server start counts towards ``setup_s`` only on workloads that run over
HTTP. The benchmark runs this several times and reports the median.

    python3 pipebench/probe.py --workload stress_http --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    batches = workloads.batches(args.workload, args.seed, args.size)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    from procharness.config import config_from_dict
    from procharness.model import MonotonicClock
    from procharness.runner import HarnessEnv
    from procharness.wire import HttpTransport, ToolServer

    t1 = time.perf_counter()
    envs = [HarnessEnv(config_from_dict(b.config)) for b in batches]
    t2 = time.perf_counter()
    servers = [ToolServer(host).start() for _, host in sorted(envs[0].hosts.items())]
    try:
        urls = {sid: s.url for sid, s in zip(sorted(envs[0].hosts), servers)}
        transport = HttpTransport(urls, MonotonicClock())
        for sid in urls:
            transport.list_tools(sid)
        server_start_s = time.perf_counter() - t2
    finally:
        for server in servers:
            server.close()
    over_http = any(b.over_http for b in batches)
    print(json.dumps({
        "import_s": t1 - t0,
        "env_s": t2 - t1,
        "server_start_s": server_start_s,
        "setup_s": t2 - t0 + (server_start_s if over_http else 0.0),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

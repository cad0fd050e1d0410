"""The serving process behind the ledger's HTTP measurements.

Builds the synthetic corpus of ``--seed`` (``--tables`` tables), serves it
through :class:`ChartSearchServer` on an ephemeral port and prints
``PORT <n>`` once the listener accepts.  It stops when its stdin closes, so
it cannot outlive the harness that spawned it.
"""

from __future__ import annotations

import argparse
import sys

from bootstrap import bootstrap

bootstrap()

from repro.serving import (  # noqa: E402
    ChartSearchServer,
    HTTPServingConfig,
    SearchService,
    ServingConfig,
)

from inputs import LSH_CONFIG, load_model, make_tables  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    service = SearchService(load_model(), ServingConfig(lsh_config=LSH_CONFIG))
    service.build(make_tables(args.tables, args.seed))
    with ChartSearchServer(service, HTTPServingConfig(port=0, max_inflight=8)) as server:
        print(f"PORT {server.port}", flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

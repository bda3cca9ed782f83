"""Inference process of the benchmark: one server.

Started by ``perfbench/run.py`` from the checkout root::

    python3 perfbench/launcher.py --mode serve --artifact DIR --work DIR [--trace]
    python3 perfbench/launcher.py --mode fleet --artifact DIR --work DIR [--trace]

``serve`` loads the artifact the way ``repro-mcu serve ARTIFACT`` does and
runs a :class:`ServingServer` with the shipped :class:`ServerOptions`
defaults (one event loop, one executor thread, no worker pool) on an
ephemeral port.  ``fleet`` does the same over a
:class:`ModelRegistry` of every artifact under ``--artifact`` with a
memory budget that holds the two largest models but not all three.

Protocol: the process prints ``READY <port>`` on stdout once listening,
then waits for ``STOP`` (or end of input) on stdin, re-runs the seeded
images through each served model and compares the logits with the
oracle in ``<work>/oracle.npz``, and shuts down.  It then writes
``<work>/result-<pid>.json``: peak RSS, oracle mismatches, planned arena
bytes, server counters and, with ``--trace``, every span recorded in
this process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402  (perfbench/spans.py, next to this script)


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _load_oracle(work):
    with np.load(os.path.join(work, "oracle.npz")) as data:
        return {key: data[key] for key in data.files}


def _check_model(name, oracle, session, registry, max_batch):
    """Oracle logit mismatches of one served model over its seeded
    images, and its arena's planned bytes at the largest tile.  Holds no
    reference to the plan afterwards: a fleet model's mmap'd weights
    cannot be unmapped while one exists."""
    images, logits = oracle[f"images:{name}"], oracle[f"logits:{name}"]
    if registry is not None:
        out = registry.run(name, images)
        entry = registry.entry(name)
        plan, hw = entry.session.plan, entry.max_hw
    else:
        out = session.run(images)
        plan, hw = session.plan, images.shape[2:]
    mismatches = int(np.sum(~np.all(out == logits, axis=1)))
    return mismatches, plan.arena_for(tuple(hw)).planned_bytes(max_batch)


async def _serve(args, result) -> None:
    from repro.runtime import Session
    from repro.serving import ModelRegistry, ServerOptions, ServingServer

    options = ServerOptions(port=0)
    session = registry = None
    if args.mode == "fleet":
        costs = sorted(
            m["cost_bytes"]
            for m in ModelRegistry.from_directory(args.artifact).stats()["models"].values()
        )
        registry = ModelRegistry.from_directory(
            args.artifact, memory_budget_bytes=costs[-1] + costs[-2])
        server = ServingServer(options=options, registry=registry)
    else:
        session = Session.load(args.artifact)
        server = ServingServer(session, options=options,
                               artifact_path=args.artifact)
    _, port = await server.start()
    print(f"READY {port}", flush=True)
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line or line.strip() == "STOP":
            break
    # Peak RSS of the serving window, before the oracle check below
    # grows the arena to the size of its probe batch.
    result["peak_rss_kb"] = _peak_rss_kb()
    oracle = _load_oracle(args.work)
    names = sorted({key.split(":", 1)[1] for key in oracle})
    checks = [_check_model(name, oracle, session, registry, options.max_batch)
              for name in names]
    await server.stop()
    result["server_stats"] = server.stats.to_dict()
    result.update(mismatches=sum(c[0] for c in checks),
                  arena_planned_bytes=sum(c[1] for c in checks))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("serve", "fleet"), required=True)
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    result = {}
    asyncio.run(_serve(args, result))
    result["spans"] = tracer.spans if tracer is not None else []
    path = os.path.join(args.work, f"result-{os.getpid()}.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(result, fh)
    os.replace(path + ".tmp", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: quantize -> compile -> serve, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload serve_light --seed 1 --seconds 32 --trace 0

Workloads (``--seed`` makes every input; the models are fixed):

``serve_light``
    Open loop at 50 requests/s against a server over the bench model
    ``mobilenet_v1_32_0.25``; JSON bodies drawn from 16 seeded images.
``serve_saturated``
    Closed loop, 2 connections, same server and images.
``fleet_churn``
    Open loop at 20 requests/s against a fleet server over
    ``{32,64,96}x0.25`` with a budget that holds two of the three models;
    seeded 80/15/5 model mix, exact in every block of 20 requests.  The
    dominant model's share keeps the median inside its hit latencies: at
    60/30/10 the median sat on the edge between the 32 and 64 models'
    latencies and jumped between them from run to run.

Each run sets the workload up six times -- build with ``pipeline(...)``,
``save``, ``verify_artifact``, spawn the server (``perfbench/launcher.py``),
warm up -- and reports the median as ``setup_s``.  The third set-up is
measured for ``--seconds``; the other three follow the window, so that
the set-up time samples the host's speed, which drifts over tens of
seconds, at both ends of the run.  The
load generator is this one process with at most ``nproc`` requests in
flight; request bodies are encoded before the timed window, and
latency is timed from when a request was due.  Every answer is checked
against the interpreted int64 oracle (``IntegerNetwork.forward``); on
exit the server also re-runs the seeded images and compares logits.

``--trace 1`` measures the window twice, each for half of ``--seconds``:
once untraced, once with spans recorded around the public entry points
of ``repro``'s modules in both processes (``perfbench/spans.py``), and
prints the per-layer metrics, their reconciliation against the mean
end-to-end time, and ``trace_overhead_pct``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; untraced, its metrics
are ``setup_s``, ``latency_p50_ms``, ``images_per_s`` (median rate over
chunks of the window), ``slo_attainment`` and ``peak_rss_mb`` (of the
inference process).  ``latency_p90_ms`` and ``latency_p99_ms`` with
their sample counts, ``error_ratio``,
``oracle_mismatches``, the generator's lateness and an environment
fingerprint are printed above it.  The command exits non-zero when an
answer differs from the oracle or the trace does not reconcile.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import gc
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# Fixed before NumPy loads, here and (inherited) in the launcher.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUPS = 6  # half before the timed window, half after it
REQUEST_TIMEOUT_S = 10.0
CHILD_TIMEOUT_S = 120.0
MIX_BLOCK = 20
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Model:
    label: str
    resolution: int
    width: float
    num_classes: int
    on_device: bool  # run the mixed-precision search for STM32H7
    seed: int
    share: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # launcher mode: serve | fleet
    models: tuple
    limit_ms: float
    rate: float = 0.0  # open loop when > 0
    clients: int = 0  # closed loop when > 0
    images: int = 16


BENCH = (Model("bench", 32, 0.25, 5, True, 0),)
WORKLOADS = {
    w.name: w for w in (
        Workload("serve_light", "serve", BENCH, limit_ms=50.0, rate=50.0),
        Workload("serve_saturated", "serve", BENCH, limit_ms=50.0, clients=2),
        Workload("fleet_churn", "fleet", (
            Model("32x0.25", 32, 0.25, 5, False, 0, 0.80),
            Model("64x0.25", 64, 0.25, 5, False, 1, 0.15),
            Model("96x0.25", 96, 0.25, 5, False, 2, 0.05),
        ), limit_ms=100.0, rate=20.0),  # shares: see the module docstring
    )
}


def median_rate(ends) -> float:
    """Images per second: the median over about 25 consecutive chunks of
    the window's answers (by completion stamp), so a burst of contention
    from other tenants of the host slows a few chunks, not the result."""
    ends = sorted(ends)
    k = max(1, len(ends) // 25)
    return statistics.median(
        k / (ends[i + k] - ends[i])
        for i in range(0, len(ends) - k, k))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: ``len(values) * (1 - q)`` samples lie
    beyond it, rounded down."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the checkout is not a git repository
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu": cpu, "nproc": NPROC, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# Inputs, artifacts, oracle
# ----------------------------------------------------------------------
def make_images(workload: Workload, seed: int) -> dict:
    import numpy as np

    return {
        m.label: np.random.default_rng([seed, i]).uniform(
            0.0, 1.0, size=(workload.images, 3, m.resolution, m.resolution))
        for i, m in enumerate(workload.models)
    }


def build(workload: Workload, root: Path) -> dict:
    """The program's set-up path: search (on-device models) ->
    materialise -> compile -> save.  Returns ``{label: session}``."""
    from repro.mcu.device import STM32H7
    from repro.models.model_zoo import mobilenet_v1_spec
    from repro.runtime import pipeline

    sessions = {}
    for m in workload.models:
        spec = mobilenet_v1_spec(m.resolution, m.width, num_classes=m.num_classes)
        session = pipeline(spec, device=STM32H7 if m.on_device else None,
                           seed=m.seed)
        session.save(root / m.label)
        sessions[m.label] = session
    return sessions


def oracle_logits(network, images):
    import numpy as np

    # One image at a time keeps the int64 engine's working set small.
    return np.concatenate([network.forward(images[i:i + 1])
                           for i in range(len(images))])


# ----------------------------------------------------------------------
# The launcher process
# ----------------------------------------------------------------------
class Child:
    """One ``perfbench/launcher.py`` process."""

    def __init__(self, mode: str, artifact: Path, work: Path, trace: bool):
        cmd = [sys.executable, str(HERE / "launcher.py"), "--mode", mode,
               "--artifact", str(artifact), "--work", str(work)]
        if trace:
            cmd.append("--trace")
        self.work = work
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def ready(self) -> int:
        readable, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line.startswith("READY "):
            raise RuntimeError(f"launcher did not start: {line!r}")
        return int(line.split()[1])

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self) -> dict:
        try:
            self.send("STOP")
        except BrokenPipeError:
            pass
        if self.proc.wait(CHILD_TIMEOUT_S) != 0:
            raise RuntimeError(f"launcher exited with {self.proc.returncode}")
        path = self.work / f"result-{self.proc.pid}.json"
        with open(path) as fh:
            result = json.load(fh)
        path.unlink()
        return result

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ----------------------------------------------------------------------
# HTTP load generator
# ----------------------------------------------------------------------
def encode_request(image, model=None) -> bytes:
    payload = {"input": image.tolist()}
    if model is not None:
        payload["model"] = model
    body = json.dumps(payload).encode()
    head = (f"POST /v1/predict HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    return head.encode("latin-1") + body


async def send(port: int, request: bytes):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return raw


async def exchange(port: int, item, due: float, clock):
    """One request ``item = (bytes, expected prediction)``: returns
    ``(due, sent, end, status, prediction, expected)``; a transport
    error or timeout is status 0."""
    request, expected = item
    sent = clock()
    try:
        raw = await asyncio.wait_for(send(port, request), REQUEST_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError):
        return due, sent, clock(), 0, None, expected
    end = clock()
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return due, sent, end, 0, None, expected
    prediction = json.loads(body)["prediction"] if status == 200 else None
    return due, sent, end, status, prediction, expected


async def open_loop(port, items, rate, seconds, clock):
    """Send ``items[i]`` at ``start + i / rate``, with at most ``NPROC``
    in flight; a request that waits for a slot is late, and its latency
    still counts from when it was due."""
    slots = asyncio.Semaphore(NPROC)
    start = clock() + 0.01
    tasks = []

    async def one(item, due):
        try:
            return await exchange(port, item, due, clock)
        finally:
            slots.release()

    for i in range(int(round(seconds * rate))):
        due = start + i / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        tasks.append(asyncio.create_task(one(items[i % len(items)], due)))
    return start, await asyncio.gather(*tasks)


async def closed_loop(port, items, clients, seconds, clock):
    """``clients`` connections, each sending its next request when the
    previous one is answered."""
    start = clock()
    stop_at = start + seconds

    async def client(k):
        out = []
        while clock() < stop_at:
            out.append(await exchange(port, items[k % len(items)], clock(), clock))
            k += clients
        return out

    per_client = await asyncio.gather(*(client(k) for k in range(clients)))
    return start, [r for results in per_client for r in results]


def check(results) -> int:
    return sum(r[3] == 200 and r[4] != r[5] for r in results)


class HttpLoad:
    """A seeded stream of pre-encoded requests, each with the oracle's
    prediction for its image."""

    def __init__(self, workload: Workload, images: dict, logits: dict, seed: int):
        import numpy as np

        self.workload = workload
        fleet = workload.mode == "fleet"
        items = {
            (m.label, i): (encode_request(images[m.label][i],
                                          m.label if fleet else None),
                           int(np.argmax(logits[m.label][i])))
            for m in workload.models for i in range(workload.images)
        }
        # The mix holds its shares exactly in every block of MIX_BLOCK
        # requests (seeded order within a block), so the share of each
        # model in a window does not vary from seed to seed.
        rng = np.random.default_rng([seed, len(workload.models)])
        deck = [m.label for m in workload.models
                for _ in range(round(m.share * MIX_BLOCK))]
        assert len(deck) == MIX_BLOCK, "shares must be multiples of 1/MIX_BLOCK"
        labels = [label for _ in range(4096 // MIX_BLOCK)
                  for label in rng.permutation(deck)]
        picks = rng.integers(0, workload.images, size=len(labels))
        self.items = [items[(str(label), int(i))] for label, i in zip(labels, picks)]
        # Warm-up: every model once, the most requested one last.
        self.warmup = [items[(m.label, 0)] for m in reversed(workload.models)]

    def warm(self, port: int, clock) -> int:
        async def go():
            return [await exchange(port, item, clock(), clock)
                    for item in self.warmup]

        results = asyncio.run(go())
        if any(r[3] != 200 for r in results):
            raise RuntimeError(f"warm-up failed: {[r[3] for r in results]}")
        return check(results)

    def window(self, port: int, seconds: float, clock) -> dict:
        wl = self.workload
        # The generator must not stall on its own garbage collector: the
        # heap it carries (NumPy, repro, the oracle) is frozen out of
        # collection and collection is off while the window runs.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            if wl.rate:
                start, results = asyncio.run(
                    open_loop(port, self.items, wl.rate, seconds, clock))
            else:
                start, results = asyncio.run(
                    closed_loop(port, self.items, wl.clients, seconds, clock))
        finally:
            gc.enable()
            gc.unfreeze()
        ok = [r for r in results if r[3] == 200]
        if not ok:
            raise RuntimeError("no request of the window was answered")
        latencies = [(r[2] - r[0]) * 1e3 for r in ok]
        end = max(r[2] for r in results)
        return {
            "attempted": len(results),
            "failed": len(results) - len(ok),
            "statuses": dict(collections.Counter(r[3] for r in results)),
            "mismatches": check(results),
            "latencies_ms": latencies,
            "slo_attainment": sum(lat <= wl.limit_ms for lat in latencies) / len(results),
            "images_per_s": median_rate([r[2] for r in ok]),
            "late_ms": [(r[1] - r[0]) * 1e3 for r in results],
            "e2e_mean_ms": statistics.fmean((r[2] - r[1]) * 1e3 for r in ok),
            "window": (start, end),
        }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
E2E_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "images_per_s": "1/s",
    "slo_attainment": "ratio", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "serving.decode_ms": "ms", "serving.front_ms": "ms",
    "serving.queue_wait_ms": "ms", "serving.batch_size": "count",
    "serving.exec_hop_ms": "ms", "runtime.validate_ms": "ms",
    "runtime.validate_calls": "count", "runtime.run_ms": "ms",
    "runtime.session_self_ms": "ms", "registry.overhead_ms": "ms",
    "inference.quantize_ms": "ms", "inference.conv_ms": "ms",
    "inference.dw_ms": "ms", "inference.pw_ms": "ms", "inference.fc_ms": "ms",
    "inference.glue_ms": "ms", "inference.layer_floor_us": "us",
    "inference.layer_calls": "count", "inference.arena_planned_bytes": "B",
    "registry.hit_ratio": "ratio", "registry.loads": "count",
    "registry.evictions": "count", "registry.miss_ms": "ms",
    "runtime.load_ms": "ms", "runtime.save_ms": "ms",
    "inference.compile_ms": "ms", "core.search_ms": "ms",
    "analysis.verify_ms": "ms", "mcu.fit_check_ms": "ms",
    "loadgen.late_p99_ms": "ms", "trace_overhead_pct": "%",
}


class Run:
    """Set-ups and timed windows of one workload in a private work
    directory under ``.bench_work/``; every launcher it starts is
    stopped and waited for by :meth:`close`."""

    def __init__(self, workload: Workload, seed: int):
        import spans

        self.workload, self.seed = workload, seed
        self.clock = spans.clock
        self.work = ROOT / ".bench_work" / str(os.getpid())
        self.work.mkdir(parents=True)
        self.live = []
        self.mismatches = 0
        self.load = None  # HttpLoad, made by prepare()

    def prepare(self) -> None:
        """Seeded inputs and their oracle logits, from an untimed build
        of the same models the set-ups build."""
        import numpy as np

        wl = self.workload
        images = make_images(wl, self.seed)
        sessions = build(wl, self.work / "reference")
        logits = {label: oracle_logits(sessions[label].network, images[label])
                  for label in images}
        del sessions
        np.savez(self.work / "oracle.npz",
                 **{f"images:{k}": v for k, v in images.items()},
                 **{f"logits:{k}": v for k, v in logits.items()})
        self.load = HttpLoad(wl, images, logits, self.seed)

    def close(self) -> None:
        for child in self.live:
            child.kill()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    def set_up(self, rep: int, trace: bool):
        """Build, save, verify, spawn, warm up; returns ``(child, port,
        seconds)``."""
        import repro.analysis

        wl = self.workload
        t0 = self.clock()
        root = self.work / f"rep{rep}"
        build(wl, root)
        for m in wl.models:
            repro.analysis.verify_artifact(root / m.label)
        artifact = root if wl.mode == "fleet" else root / wl.models[0].label
        child = Child(wl.mode, artifact, self.work, trace)
        self.live.append(child)
        port = child.ready()
        self.mismatches += self.load.warm(port, self.clock)
        return child, port, self.clock() - t0

    def stop(self, child) -> dict:
        result = child.finish()
        self.live.remove(child)
        self.mismatches += result["mismatches"]
        return result

    def window(self, child, port, seconds: float) -> dict:
        out = self.load.window(port, seconds, self.clock)
        self.mismatches += out.pop("mismatches")
        out["child"] = self.stop(child)
        return out


def measure(workload: Workload, seed: int, seconds: float):
    """Untraced run: ``SETUPS`` set-ups; the window runs on the server
    of the last set-up of the first half."""
    run = Run(workload, seed)
    try:
        run.prepare()
        setups = []
        for rep in range(SETUPS):
            child, port, took = run.set_up(rep, trace=False)
            setups.append(took)
            if rep == SETUPS // 2 - 1:
                w = run.window(child, port, seconds)
            else:
                run.stop(child)
            shutil.rmtree(run.work / f"rep{rep}")
    finally:
        run.close()
    lat = w["latencies_ms"]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(lat),
        "images_per_s": w["images_per_s"],
        "slo_attainment": w["slo_attainment"],
        "peak_rss_mb": w["child"]["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "latency_p50_ms": f"{len(lat)} requests answered",
        "slo_attainment": f"limit {workload.limit_ms:g} ms",
    }
    # Printed, not in the result object: on a 2-vCPU host shared with
    # other tenants, p90 and p99 move from run to run by more than the
    # largest allowed bound (the tail is gated through slo_attainment);
    # the error and mismatch counts are 0 on a healthy run, and the
    # result object carries them as ``failed`` and ``correct``.
    extra = {
        **{f"latency_p{q}_ms": (percentile(lat, q / 100), "ms",
                                f"{len(lat) - math.ceil(q / 100 * len(lat))} beyond")
           for q in (90, 99)},
        "error_ratio": (w["failed"] / w["attempted"], "ratio",
                        f"{w['failed']} of {w['attempted']} failed; HTTP "
                        f"status counts {w['statuses']} (0: transport)"),
        "oracle_mismatches": (run.mismatches, "count", "must be 0"),
        "loadgen.late_p99_ms": (percentile(w["late_ms"], 0.99), "ms",
                                "generator lateness"),
    }
    return metrics, notes, extra, w, run.mismatches == 0


def measure_traced(workload: Workload, seed: int, seconds: float):
    """Traced run: an untraced and a traced window of ``seconds / 2``."""
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    run = Run(workload, seed)
    try:
        run.prepare()
        child, port, _ = run.set_up(0, trace=False)
        plain = run.window(child, port, seconds / 2)
        child, port, _ = run.set_up(1, trace=True)
        traced = run.window(child, port, seconds / 2)
    finally:
        run.close()
    metrics, rows, reconciled = spans.layer_metrics(
        tracer.spans + traced["child"]["spans"], traced["window"],
        traced["e2e_mean_ms"])
    metrics["inference.arena_planned_bytes"] = float(
        traced["child"]["arena_planned_bytes"])
    metrics["loadgen.late_p99_ms"] = percentile(traced["late_ms"], 0.99)
    before = statistics.median(plain["latencies_ms"])
    after = statistics.median(traced["latencies_ms"])
    metrics["trace_overhead_pct"] = 100.0 * (after - before) / before
    return metrics, rows, reconciled, traced, run.mismatches == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
              f"missing (run from the repository root)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("fingerprint " + json.dumps(fingerprint()))
    if args.trace:
        metrics, rows, reconciled, w, correct = measure_traced(
            workload, args.seed, args.seconds)
        print("reconciliation (mean ms per request):")
        for name, value, glue in rows:
            print(f"  {name:26s} {value:10.4f}{'  (glue)' if glue else ''}")
        total = sum(value for _, value, _ in rows)
        print(f"  {'sum of rows':26s} {total:10.4f}\n"
              f"  {'mean end to end':26s} {w['e2e_mean_ms']:10.4f}  "
              f"{'ok' if reconciled else 'FAILED'}")
        correct = correct and reconciled
        units = LAYER_UNITS
        notes = {}
    else:
        metrics, notes, extra, w, correct = measure(
            workload, args.seed, args.seconds)
        units = E2E_UNITS
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:14.4f} {unit:6s} {notes.get(name, '')}")
    if not args.trace:
        for name, (value, unit, note) in extra.items():
            print(f"  {name:30s} {value:14.4f} {unit:6s} {note}")
    if w["failed"]:
        print("server counters " + json.dumps(w["child"].get("server_stats")))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(w["attempted"]),
        "failed": int(w["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""E9 — throughput of the compiled inference engine vs. the seed
interpreted int64-einsum path on a MobileNetV1 deployment graph.

Three measurements:

* E9  — end-to-end + per-layer latency of the compiled arena plan
  against the interpreted seed, asserting bit-exactness and the
  headline speedup;
* E9a — the depthwise-dominated regime (the paper's flagship 224_1.0
  geometry, where the kh*kw-fold im2col copy blows the cache): the fused
  stencil layers must beat the im2col path (``fused_depthwise=False``)
  on the memory-bound layers, stride-1 and stride-2;
* E9b — a streamed ``run_batched`` sweep whose measured peak allocation
  must stay inside the compile-time activation-arena plan reported by
  ``ExecutionPlan.describe()``.

The retired comparisons against the int64-code and arena-less
pipelines (an extra E9 column, and E9c) stay on record in
``results/engine_throughput.txt`` and
``results/engine_narrow_native.txt``.

Run as a script for the CI smoke lane::

    python benchmarks/bench_engine_throughput.py --quick

which sweeps reduced-size parity checks (arena / int32 / int64 /
stencil plans vs. the interpreted int64 reference, plus an artifact
round trip) and exits non-zero on any mismatch.
"""

import argparse
import sys
import time
import tracemalloc

import numpy as np

from repro.evaluation.tables import render_table
from repro.inference.kernels import depthwise_prefers_stencil
from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import CompileOptions, Session, SessionOptions

RESOLUTION = 128
WIDTH = 0.5
BATCH = 8
NUM_CLASSES = 100


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_benchmark_engine_throughput(record_report):
    spec = mobilenet_v1_spec(RESOLUTION, WIDTH, num_classes=NUM_CLASSES)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(0, 1, size=(BATCH, 3, RESOLUTION, RESOLUTION))
    plan = net.compile(CompileOptions(input_hw=(RESOLUTION, RESOLUTION)))

    # Bit-exactness vs. the int64 reference.
    ref_logits = net.forward(x)
    fast_logits = plan.run(x)
    assert np.array_equal(ref_logits, fast_logits), "compiled engine diverged from int64 reference"
    assert np.array_equal(fast_logits, plan.run_batched(x, batch_size=3))

    t_seed = _best_of(lambda: net.forward(x))
    t_plan = _best_of(lambda: plan.run(x))
    speedup = t_seed / t_plan

    # Per-layer latency on the propagated intermediate codes: seed vs.
    # the compiled arena/auto plan.
    rows = []
    codes = plan.quantize_input(x)
    codes_seed = net.quantize_input(x)
    arena = plan.arena_for((RESOLUTION, RESOLUTION))
    arena.ensure(BATCH)
    infos = {i.name: i for i in plan.layer_info()}
    for i, (new_layer, ref_layer) in enumerate(zip(plan.layers, net.conv_layers)):
        # Use the layer's true ping-pong slot: code slots are sized per
        # parity, so slot 0 need not fit an odd-index layer's output.
        t_l_seed = _best_of(lambda: ref_layer.forward(codes_seed))
        t_l_new = _best_of(lambda: new_layer(codes, arena, i % 2))
        info = infos[new_layer.name]
        dispatch = f"{info.backend}/{info.gemm_dtype}->{info.container}"
        if info.dw_mode:
            dispatch += f" dw:{info.dw_mode}"
        rows.append([
            new_layer.name,
            new_layer.kind,
            dispatch,
            round(t_l_seed * 1e3, 2),
            round(t_l_new * 1e3, 2),
            round(t_l_seed / t_l_new, 1),
        ])
        # Propagate an owned copy: the next timed call reuses the slabs.
        codes = new_layer(codes, arena, i % 2).copy()
        codes_seed = ref_layer.forward(codes_seed)
    rows.append([
        "TOTAL", "", "",
        round(t_seed * 1e3, 2), round(t_plan * 1e3, 2), round(speedup, 1),
    ])

    report = render_table(
        ["Layer", "Kind", "Dispatch", "Seed ms", "Plan ms", "Speedup"],
        rows,
        title=(
            f"E9 — MobileNetV1 {RESOLUTION}_{WIDTH} batch={BATCH}: "
            f"{BATCH / t_seed:.1f} -> {BATCH / t_plan:.1f} imgs/sec "
            f"({speedup:.1f}x vs seed, bit-exact; arena "
            f"{arena.planned_bytes(BATCH)} B planned, code pair "
            f"{arena.physical_code_bytes(1)} B physical == Eq.7 peak)"
        ),
    )
    record_report("engine_throughput", report)

    assert speedup >= 5.0, f"compiled engine speedup {speedup:.2f}x below the 5x target"


def test_benchmark_depthwise_fused_speedup(record_report):
    """E9a — depthwise-dominated regime (flagship 224_1.0 geometry).

    At this scale a depthwise layer's im2col column tensor is tens to
    hundreds of MB — far past cache — which is exactly the "depthwise
    layers are memory-bound" headroom the roadmap records.  The auto
    dispatch routes those layers to the fused stencil (stride-1 and
    stride-2); stride-1 stencils must beat the im2col path of a
    ``fused_depthwise=False`` plan >= 1.5x in aggregate, stride-2
    >= 1.1x, bit-exactly.
    """
    res, batch = 224, 6
    spec = mobilenet_v1_spec(res, 1.0, num_classes=NUM_CLASSES)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(0, 1, size=(batch, 3, res, res))
    plan = net.compile(CompileOptions(input_hw=(res, res)))
    plan_im2col = net.compile(CompileOptions(fused_depthwise=False, input_hw=(res, res)))
    assert np.array_equal(plan.run(x), plan_im2col.run(x)), "fused/auto plan diverged"

    rows = []
    codes = plan.quantize_input(x)
    arena = plan.arena_for((res, res))
    arena.ensure(batch)
    arena_im2col = plan_im2col.arena_for((res, res))
    arena_im2col.ensure(batch)
    totals = {1: [0.0, 0.0, 0], 2: [0.0, 0.0, 0]}  # stride -> [new, im2col, layers]
    for i, (new_layer, im2col_layer) in enumerate(zip(plan.layers, plan_im2col.layers)):
        if new_layer.kind == "dw":
            n, c, h, w = codes.shape
            oh = (h + 2 * new_layer.padding - new_layer.kh) // new_layer.stride + 1
            fused = depthwise_prefers_stencil(
                n, c, new_layer.kh, new_layer.kw, oh, oh,
                new_layer.gemm_itemsize, stride=new_layer.stride,
            )
            t_l_im2col = _best_of(lambda: im2col_layer(codes, arena_im2col, i % 2))
            t_l_new = _best_of(lambda: new_layer(codes, arena, i % 2))
            if fused:
                agg = totals[new_layer.stride]
                agg[0] += t_l_new
                agg[1] += t_l_im2col
                agg[2] += 1
            rows.append([
                new_layer.name,
                f"s{new_layer.stride} " + ("stencil" if fused else "im2col"),
                round(t_l_im2col * 1e3, 2),
                round(t_l_new * 1e3, 2),
                round(t_l_im2col / t_l_new, 2),
            ])
        codes = new_layer(codes, arena, i % 2).copy()  # owned input for the next layer
    s1_speedup = totals[1][1] / totals[1][0]
    s2_speedup = totals[2][1] / totals[2][0]

    report = render_table(
        ["Layer", "Auto path", "im2col ms", "Auto ms", "Speedup"],
        rows + [
            ["STENCIL s1 TOTAL", f"{totals[1][2]} layers",
             round(totals[1][1] * 1e3, 2), round(totals[1][0] * 1e3, 2),
             round(s1_speedup, 2)],
            ["STENCIL s2 TOTAL", f"{totals[2][2]} layers",
             round(totals[2][1] * 1e3, 2), round(totals[2][0] * 1e3, 2),
             round(s2_speedup, 2)],
        ],
        title=(
            f"E9a — MobileNetV1 {res}_1.0 batch={batch} depthwise layers: "
            f"fused stencil {s1_speedup:.2f}x (s1) / {s2_speedup:.2f}x (s2) "
            f"over im2col on the memory-bound layers (bit-exact)"
        ),
    )
    record_report("engine_depthwise_fused", report)

    assert totals[1][2] >= 2, "auto dispatch engaged on too few s1 dw layers"
    assert totals[2][2] >= 1, "auto dispatch engaged on no s2 dw layer"
    assert s1_speedup >= 1.5, (
        f"fused depthwise s1 speedup {s1_speedup:.2f}x below the 1.5x target"
    )
    assert s2_speedup >= 1.1, (
        f"fused depthwise s2 speedup {s2_speedup:.2f}x below the 1.1x target"
    )


def test_benchmark_batched_sweep_throughput(record_report):
    """E9b — streaming a sweep through the Session front door sustains
    the compiled rate inside the compile-time activation-memory plan."""
    res = 96
    spec = mobilenet_v1_spec(res, 0.25, num_classes=NUM_CLASSES)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    session = Session(net, options=SessionOptions(batch_size=8, input_hw=(res, res)))
    plan = session.plan
    sweep = np.random.default_rng(2).uniform(0, 1, size=(64, 3, res, res))

    t_sweep = _best_of(lambda: session.run_batched(sweep), reps=2)
    rate = sweep.shape[0] / t_sweep

    # Two-part bound (the whole point of the ping-pong scheme: batch >>
    # RAM never exceeds the planned peak).  The slabs themselves must be
    # exactly the compile-time plan, and a warm steady-state sweep must
    # not allocate more new memory on top of them than that plan.
    arena = plan.arena_for((res, res))
    planned = arena.planned_bytes(8)
    assert arena.allocated_bytes == planned, "arena slabs diverged from the plan"
    tracemalloc.start()
    session.run_batched(sweep)
    _, measured_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert measured_peak <= planned, (
        f"run_batched peak {measured_peak} B exceeded planned arena {planned} B"
    )

    report = render_table(
        ["Sweep images", "Tile", "Seconds", "imgs/sec", "Planned arena B", "Measured peak B"],
        [[sweep.shape[0], 8, round(t_sweep, 3), round(rate, 1), planned, measured_peak]],
        title="E9b — batched evaluation sweep through the arena-backed plan",
    )
    record_report("engine_sweep_throughput", report)
    assert rate > 0


# ----------------------------------------------------------------------
# CI smoke lane: `python benchmarks/bench_engine_throughput.py --quick`
# ----------------------------------------------------------------------
def _quick_parity_sweep() -> None:
    """Reduced-size bit-exactness sweep across engine flavours.

    Runs in seconds; any parity mismatch raises (non-zero exit), so perf
    PRs cannot silently break the bit-exactness contract the benchmarks
    rely on.
    """
    configs = [(32, 0.25, 8), (32, 0.5, 8), (64, 1.0, 8), (32, 0.25, 4), (32, 0.25, 2)]
    for res, width, bits in configs:
        spec = mobilenet_v1_spec(res, width, num_classes=10)
        net = integer_network_from_spec(
            spec, np.random.default_rng(res + int(width * 10) + bits),
            act_bits=bits, w_bits=bits,
        )
        x = np.random.default_rng(1).uniform(0, 1, size=(3, 3, res, res))
        ref = net.forward(x)
        flavours = {
            "arena": net.compile(),
            "int32": net.compile(CompileOptions(backend="int32")),
            "int64": net.compile(CompileOptions(backend="int64")),
            "stencil": net.compile(CompileOptions(fused_depthwise=True)),
        }
        for name, plan in flavours.items():
            got = plan.run(x)
            if not np.array_equal(ref, got):
                raise AssertionError(
                    f"{res}_{width} @ {bits}-bit: {name} plan diverged from "
                    f"the interpreted int64 reference"
                )
        batched = flavours["arena"].run_batched(x, batch_size=2)
        if not np.array_equal(ref, batched):
            raise AssertionError(f"{res}_{width} @ {bits}-bit: run_batched diverged")
        # Session-artifact round trip: save -> load -> serve must stay
        # bit-identical with no reference to the original network.
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            Session(net).save(tmp + "/artifact")
            if not np.array_equal(ref, Session.load(tmp + "/artifact").run(x)):
                raise AssertionError(
                    f"{res}_{width} @ {bits}-bit: artifact round trip diverged"
                )
        print(f"  parity ok: {res}_{width} @ {bits}-bit "
              f"({len(flavours)} engine flavours + artifact round trip, bit-exact)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fast parity-only sweep (CI smoke job); no timing assertions",
    )
    args = parser.parse_args(argv)
    if args.quick:
        print("E9 quick parity sweep (arena/int32/int64/stencil + artifact round trip)...")
        _quick_parity_sweep()
        print("OK — all engine flavours bit-exact against the reference")
        return 0
    # Full benchmark run without pytest: reuse the pytest entry points
    # with a local report writer.
    from pathlib import Path

    results = Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)

    def record(name, text):
        path = results / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    test_benchmark_engine_throughput(record)
    test_benchmark_depthwise_fused_speedup(record)
    test_benchmark_batched_sweep_throughput(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())

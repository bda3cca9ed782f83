"""Synthetic :class:`IntegerNetwork` builders shared by tests and benchmarks.

Training a QAT model just to obtain an integer deployment graph is slow;
these helpers materialise random-but-well-formed integer layers directly
(codes in range, requantization multipliers scaled so the outputs spread
over the UINT-Q levels instead of saturating), including full MobileNetV1
topologies driven by a :class:`~repro.models.model_zoo.NetworkSpec`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.icn import (
    FoldedBNParams,
    ICNParams,
    compute_thresholds,
    quantize_multiplier,
)
from repro.inference.engine import (
    IntegerAvgPool,
    IntegerConvLayer,
    IntegerLinearLayer,
    IntegerNetwork,
)
from repro.inference.packing import container_dtype
from repro.models.model_zoo import NetworkSpec
from repro.nn.functional import conv_output_size


def _target_multiplier(k_reduction: int, in_bits: int, out_bits: int, w_bits: int) -> float:
    """A multiplier magnitude that maps typical accumulators onto the
    output code range (uniform codes give |Phi| ~ sqrt(k) * qx*qw/4)."""
    phi_typical = np.sqrt(k_reduction) * (2 ** in_bits / 4.0) * (2 ** w_bits / 4.0)
    return (2 ** out_bits - 1) / max(phi_typical, 1.0)


def random_conv_layer(
    rng: np.random.Generator,
    kind: str,
    c_in: int,
    c_out: int,
    kernel: int = 3,
    stride: int = 1,
    padding: int = 1,
    in_bits: int = 8,
    out_bits: int = 8,
    w_bits: int = 8,
    per_channel: bool = True,
    strategy: str = "icn",
    name: str = "layer",
) -> IntegerConvLayer:
    """One random integer conv layer (``kind`` in {"conv", "pw", "dw"}).

    ``strategy`` selects the requantization parameters: ``"icn"``,
    ``"folded"`` (PL+FB, forces per-layer) or ``"thr"`` (thresholds).
    """
    if strategy not in ("icn", "folded", "thr"):
        raise ValueError(
            f"unknown requant strategy {strategy!r}; "
            "expected 'icn', 'folded' or 'thr'"
        )
    if kind == "dw":
        c_out = c_in
        w_shape = (c_out, 1, kernel, kernel)
        k_reduction = kernel * kernel
    else:
        w_shape = (c_out, c_in, kernel, kernel)
        k_reduction = c_in * kernel * kernel
    # Weight codes live in their narrow container (uint8 for <= 8 bits),
    # like the quantizer emits them — the engines never see int64 weights.
    weights_q = rng.integers(0, 2 ** w_bits, size=w_shape, dtype=container_dtype(w_bits))
    z_x = int(rng.integers(0, 2 ** in_bits))
    z_y = 2 ** (out_bits - 1)
    m_target = _target_multiplier(k_reduction, in_bits, out_bits, w_bits)

    if strategy == "folded":
        z_w = int(rng.integers(0, 2 ** w_bits))
        m0, n0 = quantize_multiplier(np.array([m_target]))
        params: object = FoldedBNParams(
            weights_q=weights_q,
            z_w=z_w,
            z_x=z_x,
            z_y=z_y,
            bq=rng.integers(-(2 ** 10), 2 ** 10, size=c_out, dtype=np.int64),
            m0=int(m0[0]),
            n0=int(n0[0]),
            out_bits=out_bits,
            w_bits=w_bits,
        )
    else:
        if per_channel:
            z_w_arr = rng.integers(0, 2 ** w_bits, size=c_out, dtype=np.int64)
        else:
            z_w_arr = np.array([int(rng.integers(0, 2 ** w_bits))], dtype=np.int64)
        # Spread multipliers over ~2 octaves; flip a few channels negative
        # to exercise the decreasing-threshold branch (negative BN gamma).
        m = m_target * np.exp2(rng.uniform(-1.0, 1.0, size=c_out))
        m *= np.where(rng.random(c_out) < 0.1, -1.0, 1.0)
        m0, n0 = quantize_multiplier(m)
        icn = ICNParams(
            weights_q=weights_q,
            z_w=z_w_arr,
            z_x=z_x,
            z_y=z_y,
            bq=rng.integers(-(2 ** 10), 2 ** 10, size=c_out, dtype=np.int64),
            m0=m0,
            n0=n0,
            out_bits=out_bits,
            w_bits=w_bits,
            per_channel=per_channel,
        )
        params = compute_thresholds(icn) if strategy == "thr" else icn

    return IntegerConvLayer(
        name=name,
        kind=kind,
        stride=stride,
        padding=padding,
        params=params,
        in_bits=in_bits,
        out_bits=out_bits,
        in_scale=0.05,
        out_scale=0.05,
    )


def random_linear_layer(
    rng: np.random.Generator,
    in_features: int,
    out_features: int,
    in_bits: int = 8,
    w_bits: int = 8,
    per_channel: bool = True,
    name: str = "classifier",
) -> IntegerLinearLayer:
    size = out_features if per_channel else 1
    return IntegerLinearLayer(
        name=name,
        weights_q=rng.integers(0, 2 ** w_bits, size=(out_features, in_features),
                               dtype=container_dtype(w_bits)),
        z_w=rng.integers(0, 2 ** w_bits, size=size, dtype=np.int64),
        s_w=rng.uniform(1e-3, 2e-2, size=size),
        z_x=int(rng.integers(0, 2 ** in_bits)),
        s_in=0.05,
        bias=rng.normal(0.0, 0.1, size=out_features),
        in_bits=in_bits,
        w_bits=w_bits,
    )


def random_network(
    rng: np.random.Generator,
    resolution: int = 12,
    in_channels: int = 3,
    max_layers: int = 4,
    act_bits: int = 8,
    w_bits: int = 8,
    num_classes: int = 4,
    strategy: str = "mixed",
    per_channel: bool = True,
) -> IntegerNetwork:
    """A random-*topology* integer network (not just random weights).

    Layer kinds (conv/dw/pw), kernel sizes, strides, paddings and channel
    counts are all drawn at random, with strides/paddings constrained so
    the spatial size never collapses below 1x1 at the given
    ``resolution``.  ``strategy="mixed"`` additionally draws the
    requantization strategy per layer (ICN / folded-BN / thresholds), so
    a single network exercises every compiled requant path.  This is the
    adversarial counterpart of :func:`integer_network_from_spec` used by
    the arena-safety property tests.
    """
    layers = []
    h = int(resolution)
    c_in = int(in_channels)
    n_layers = int(rng.integers(1, max_layers + 1))
    for i in range(n_layers):
        kind = str(rng.choice(["conv", "dw", "pw"]))
        if kind == "pw":
            kernel, padding = 1, 0
        else:
            kernel = int(rng.choice([1, 3, 5]))
            padding = int(rng.integers(0, kernel // 2 + 1))
        stride = int(rng.choice([1, 2]))
        if conv_output_size(h, kernel, stride, padding) < 1:
            stride = 1
            padding = max(padding, (kernel - h + 1) // 2)
        if conv_output_size(h, kernel, stride, padding) < 1:
            kernel, padding = 1, 0
        c_out = c_in if kind == "dw" else int(rng.choice([3, 5, 8]))
        layer_strategy = (
            str(rng.choice(["icn", "folded", "thr"])) if strategy == "mixed"
            else strategy
        )
        layers.append(
            random_conv_layer(
                rng,
                kind=kind,
                c_in=c_in,
                c_out=c_out,
                kernel=kernel,
                stride=stride,
                padding=padding,
                in_bits=act_bits,
                out_bits=act_bits,
                w_bits=w_bits,
                per_channel=per_channel and layer_strategy != "folded",
                strategy=layer_strategy,
                name=f"L{i}_{kind}",
            )
        )
        h = conv_output_size(h, kernel, stride, padding)
        c_in = c_out if kind != "dw" else c_in
    return IntegerNetwork(
        conv_layers=layers,
        pool=IntegerAvgPool(),
        classifier=random_linear_layer(
            rng, c_in, num_classes,
            in_bits=act_bits, w_bits=w_bits, per_channel=per_channel,
        ),
        input_scale=1.0 / 255.0,
        input_zero_point=0,
        input_bits=act_bits,
    )


def integer_network_from_spec(
    spec: NetworkSpec,
    rng: Optional[np.random.Generator] = None,
    act_bits: int = 8,
    w_bits: int = 8,
    per_channel: bool = True,
    strategy: str = "icn",
    policy=None,
) -> IntegerNetwork:
    """Random integer deployment of an entire :class:`NetworkSpec`.

    Layer shapes (channels, kernels, strides, paddings) follow the spec;
    weights and requantization parameters are synthetic.  Useful wherever
    a full-size deployment graph is needed without running QAT first.

    ``policy`` (a :class:`~repro.core.policy.QuantPolicy` aligned with
    ``spec.layers``) overrides the uniform ``act_bits``/``w_bits`` with
    the per-layer ``q_w``/``q_in``/``q_out`` assignment the
    mixed-precision search produced — the materialisation step
    :func:`repro.runtime.pipeline` uses to turn a search result into a
    runnable mixed-precision deployment.
    """
    rng = rng or np.random.default_rng(0)
    if policy is not None and len(policy) != len(spec.layers):
        raise ValueError(
            f"policy has {len(policy)} layers but spec {spec.name!r} "
            f"has {len(spec.layers)}"
        )
    conv_layers = []
    classifier = None
    for i, layer in enumerate(spec.layers):
        lp = policy[i] if policy is not None else None
        l_in = lp.q_in if lp is not None else act_bits
        l_out = lp.q_out if lp is not None else act_bits
        l_w = lp.q_w if lp is not None else w_bits
        if layer.kind == "fc":
            classifier = random_linear_layer(
                rng, layer.in_channels, layer.out_channels,
                in_bits=l_in, w_bits=l_w, per_channel=per_channel,
            )
            continue
        conv_layers.append(
            random_conv_layer(
                rng,
                kind=layer.kind,
                c_in=layer.in_channels,
                c_out=layer.out_channels,
                kernel=layer.kernel_size,
                stride=layer.stride,
                padding=layer.padding,
                in_bits=l_in,
                out_bits=l_out,
                w_bits=l_w,
                per_channel=per_channel,
                strategy=strategy,
                name=layer.name,
            )
        )
    input_bits = policy[0].q_in if policy is not None and len(policy) else act_bits
    return IntegerNetwork(
        conv_layers=conv_layers,
        pool=IntegerAvgPool(),
        classifier=classifier,
        input_scale=1.0 / 255.0,
        input_zero_point=0,
        input_bits=input_bits,
    )

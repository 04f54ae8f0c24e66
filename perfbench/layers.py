"""Where the traced run wraps grainforge, and the per-layer metrics it reports.

Each target is wrapped in every grainforge module that holds it, under
whatever name that module binds it to: ``network`` binds the tensor
kernels by name, ``training`` binds ``forward``, ``backward`` and ``step``
by name, and ``cli``/``explain`` look functions up as module attributes.
Every per-layer value is reported per round of the workload's commands.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Span, Tracer, summarize

PACKAGE = "grainforge"


def _conv_name(x, *_args, **_kwargs) -> str:
    # the first conv of both networks reads the 3-channel image
    return "tensor.conv2d_batch.first" if x.shape[-1] <= 3 else "tensor.conv2d_batch.deep"


def _conv_flop(args) -> int:
    x, kernels = args[0], args[1]
    b, h, w, cin = x.shape
    kh, kw, _, cout = kernels.shape
    return 2 * b * (h - kh + 1) * (w - kw + 1) * kh * kw * cin * cout


def _attrs_conv(args, kwargs, result):
    return {"flop": _conv_flop(args)}


def _attrs_conv_backward(args, kwargs, result):
    # input gradient and kernel gradient each cost one forward's product count
    return {"flop": 2 * _conv_flop(args)}


def _attrs_pool(args, kwargs, result):
    pooled, argmax = result
    return {"bytes": args[0].nbytes + pooled.nbytes + argmax.nbytes}


def _attrs_pool_backward(args, kwargs, result):
    _, argmax, dout = args[:3]
    return {"bytes": argmax.nbytes + dout.nbytes + result.nbytes}


def _attrs_forward(args, kwargs, result):
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    return {"images": 1 if batch.ndim == 3 else int(batch.shape[0])}


def _attrs_slic(args, kwargs, result):
    return {"segments": int(result.count)}


# (defining module, function, span name, attribute recorder)
TARGETS = (
    ("tensor", "conv2d_batch", _conv_name, _attrs_conv),
    ("tensor", "conv2d_backward", "tensor.conv2d_backward", _attrs_conv_backward),
    ("tensor", "maxpool2d_batch", "tensor.maxpool2d_batch", _attrs_pool),
    ("tensor", "maxpool2d_backward", "tensor.maxpool2d_backward", _attrs_pool_backward),
    ("tensor", "dense_forward", "tensor.dense", None),
    ("tensor", "dense_backward", "tensor.dense", None),
    ("network", "forward", "network.forward", _attrs_forward),
    ("network", "backward", "network.backward", None),
    ("network", "load_weights", "network.load_weights", None),
    ("network", "save_weights", "network.save_weights", None),
    ("optimizer", "step", "optimizer.step", None),
    ("training", "load_dataset", "training.load_dataset", None),
    ("training", "train_arrays", "training.train_arrays", None),
    ("training", "evaluate_arrays", "training.evaluate_arrays", None),
    ("metrics", "roc_micro", "metrics.roc_micro", None),
    ("metrics", "class_report", "metrics.class_report", None),
    ("imaging", "read_image", "imaging.read_image", None),
    ("imaging", "canny", "imaging.canny", None),
    ("imaging", "segment_grain", "imaging.segment_grain", None),
    ("imaging", "resize", "imaging.resize", None),
    ("imaging", "normalize", "imaging.normalize", None),
    ("imaging", "write_image", "imaging.write_image", None),
    ("explain", "slic_superpixels", "explain.slic_superpixels", _attrs_slic),
    ("explain", "lime_explain", "explain.lime_explain", None),
    ("explain", "kernel_shap", "explain.kernel_shap", None),
    ("explain", "perturb", "explain.perturb", None),
    ("explain", "render_lime_heatmap", "explain.render", None),
    ("explain", "render_shap_heatmap", "explain.render", None),
)

# (metric, unit) of every per-layer metric, in the order BENCHMARK.json lists them
with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as _fh:
    PER_LAYER = tuple((m["name"], m["unit"]) for m in json.load(_fh)["per_layer"])


def install(tracer: Tracer) -> None:
    """Wrap every target wherever a grainforge module binds it."""
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    for home, func, span_name, attrs in TARGETS:
        original = getattr(sys.modules[f"{PACKAGE}.{home}"], func)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    tracer.wrap(module, attr, span_name, attrs)


def _attr_sum(spans: list[Span], names, key: str) -> int:
    return sum(s.attrs[key] for s in spans if s.name in names and s.attrs)


def _model_calls(spans: list[Span]) -> int:
    """Forward calls with a LIME or KernelSHAP span among their ancestors."""
    by_id = {s.id: s for s in spans}
    explainers = {"explain.lime_explain", "explain.kernel_shap"}
    count = 0
    for s in spans:
        if s.name != "network.forward":
            continue
        parent = s.parent
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor.name in explainers:
                count += 1
                break
            parent = ancestor.parent
    return count


def layer_metrics(spans: list[Span], rounds: int, overhead: float) -> dict[str, float]:
    """Per-round per-layer values from the spans of ``rounds`` traced rounds."""
    table = summarize(spans)

    def total(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        name, _, key = metric.rpartition(".")
        if key in ("s", "self_s", "calls"):
            out[metric] = total(name, key) / rounds

    convs = ("tensor.conv2d_batch.first", "tensor.conv2d_batch.deep", "tensor.conv2d_backward")
    pools = ("tensor.maxpool2d_batch", "tensor.maxpool2d_backward")
    flop = _attr_sum(spans, convs, "flop")
    conv_s = sum(total(n, "self_s") for n in convs)
    pool_bytes = _attr_sum(spans, pools, "bytes")
    pool_s = sum(total(n, "self_s") for n in pools)
    forward_calls = total("network.forward", "calls")
    slic_calls = total("explain.slic_superpixels", "calls")
    out["tensor.conv2d.gflop"] = flop / rounds / 1e9
    out["tensor.conv2d.gflop_per_s"] = flop / conv_s / 1e9 if conv_s else 0.0
    out["tensor.maxpool2d.mbytes"] = pool_bytes / rounds / 1e6
    out["tensor.maxpool2d.gbytes_per_s"] = pool_bytes / pool_s / 1e9 if pool_s else 0.0
    out["network.forward.mean_batch"] = (
        _attr_sum(spans, ("network.forward",), "images") / forward_calls if forward_calls else 0.0
    )
    out["explain.segments"] = (
        _attr_sum(spans, ("explain.slic_superpixels",), "segments") / slic_calls
        if slic_calls
        else 0.0
    )
    out["explain.model_calls"] = _model_calls(spans) / rounds
    out["trace.overhead"] = overhead
    return {metric: out[metric] for metric, _ in PER_LAYER}


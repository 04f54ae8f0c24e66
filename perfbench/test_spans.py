"""Self-test of the benchmark's span bookkeeping and wrapper restore.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_nested_back_to_back_and_zero_length_children():
    # root [0,10] has children a [1,3], b [3,6] back to back and c [7,7] of zero length;
    # a has a nested child [1.5,2.5]
    tracer = Tracer(clock=FakeClock([0, 1, 1.5, 2.5, 3, 3, 6, 7, 7, 10]))
    root = tracer.begin("root")
    a = tracer.begin("a")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(root)

    own = self_times(tracer.spans)
    assert own[root.id] == pytest.approx(10 - 2 - 3 - 0)
    assert own[a.id] == pytest.approx(1.0)
    assert own[inner.id] == pytest.approx(1.0)
    assert own[b.id] == pytest.approx(3.0)
    assert own[c.id] == 0
    assert [s.parent for s in tracer.spans] == [None, root.id, a.id, root.id, root.id]

    table = summarize(tracer.spans)
    assert table["root"] == {"calls": 1, "s": 10, "self_s": pytest.approx(5.0)}
    assert table["c"]["calls"] == 1 and table["c"]["s"] == 0


def test_repeated_names_sum_and_spans_carry_the_command_id():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 4, 5, 9]))
    with tracer.command(7):
        for _ in range(2):
            tracer.end(tracer.begin("leaf"))
    table = summarize(tracer.spans)
    assert table["leaf"] == {"calls": 2, "s": 2, "self_s": 2}
    assert table["cli"]["self_s"] == pytest.approx(9 - 2)
    assert {s.cmd for s in tracer.spans} == {7}


def test_wrap_records_span_and_restores_on_error():
    def work(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    owner = types.SimpleNamespace(work=work)
    tracer = Tracer()
    tracer.wrap(owner, "work", "owner.work", lambda args, kwargs, result: {"x": args[0]})
    try:
        with tracer.command(1):
            assert owner.work(3) == 6
            with pytest.raises(ValueError):
                owner.work(-1)
    finally:
        tracer.uninstall()
    assert owner.work is work
    assert [s.name for s in tracer.spans] == ["cli", "owner.work", "owner.work"]
    assert tracer.spans[1].attrs == {"x": 3}
    assert tracer.spans[2].end >= tracer.spans[2].start


def test_calls_outside_a_command_are_not_recorded():
    owner = types.SimpleNamespace(work=lambda x: x + 1)
    tracer = Tracer()
    tracer.wrap(owner, "work", "owner.work")
    try:
        assert owner.work(1) == 2
        with tracer.command(0):
            owner.work(2)
        assert owner.work(3) == 4
    finally:
        tracer.uninstall()
    assert [(s.name, s.cmd) for s in tracer.spans] == [("cli", 0), ("owner.work", 0)]


def _grainforge_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "grainforge" or name.startswith("grainforge.")
    }


def test_every_wrapper_is_restored_after_a_traced_command(tmp_path):
    from grainforge import cli, imaging, network, synthetic, training
    from grainforge.rng import Rng

    spec = network.build_rice_cnn()
    params = network.init_parameters(spec, Rng(3).child("weights"), dtype=np.float32)
    weights = tmp_path / "rice.gfw"
    network.save_weights(spec, params, weights)
    image = tmp_path / "disc.ppm"
    imaging.write_image(synthetic.render_shape("disc", 50, Rng(3)), image)
    argv = ["explain", "--weights", str(weights), "--image", str(image), "--method", "lime",
            "--samples", "20", "--segments", "6", "--seed", "3", "--out-dir", str(tmp_path)]

    before = _grainforge_namespaces()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert network.conv2d_batch is not before["grainforge.network"]["conv2d_batch"]
        assert training.forward is not before["grainforge.training"]["forward"]
        with contextlib.redirect_stdout(io.StringIO()), tracer.command(1):
            assert cli.main(argv) == 0
        # the benchmark's output checks run between commands and stay out of the figures
        imaging.read_image(tmp_path / "disc.lime.ppm")
    finally:
        tracer.uninstall()

    after = _grainforge_namespaces()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"

    assert {s.cmd for s in tracer.spans} == {1}
    values = layers.layer_metrics(tracer.spans, rounds=1, overhead=1.0)
    forward_calls = values["network.forward.calls"]
    # one extra forward picks the argmax class before LIME starts
    assert values["explain.model_calls"] == forward_calls - 1 > 0
    assert values["explain.perturb.calls"] == forward_calls - 1
    assert values["network.forward.mean_batch"] == 1
    assert values["imaging.read_image.calls"] == 1
    assert values["tensor.conv2d.gflop"] > 0
    assert values["optimizer.step.calls"] == 0
    assert set(values) == {name for name, _ in layers.PER_LAYER}


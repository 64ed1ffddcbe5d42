import numpy as np

from fixquant import tensor_core as tc
from fixquant.datasets import Dataset
from fixquant.debug import run_debug
from fixquant.quantsim import QuantSimModel
from test_ptq import _conv_chain


def test_a_stage_1_mismatch_stops_early_and_restores_the_quantizers(monkeypatch):
    from fixquant import debug

    model = _conv_chain()
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 3, 6, 6))
    ds = Dataset(x, model.forward(x), metric="mse")
    sims, real = [], debug.create_quantsim

    def diverging(*args, **kwargs):
        # a simulation whose forward strays from the float graph even with every quantizer off
        sim = real(*args, **kwargs)
        forward = sim.forward
        sim.forward = lambda inputs: forward(inputs) + 1.0
        sims.append(sim)
        return sim

    monkeypatch.setattr(debug, "create_quantsim", diverging)
    report = run_debug(model, ds)
    assert not report.fp32_sanity_ok and report.stopped_early
    assert len(report.suggestions) == 1 and "diverges from the float model" in report.suggestions[0]
    assert report.layer_table == [] and report.quantized_score == 0.0
    (sim,) = sims
    quantizers = sim.all_quantizers()
    assert len(quantizers) == 12 and all(spec.enabled and spec.encodings for spec in quantizers.values())


def test_a_one_batch_sweep_resumes_each_evaluation_and_writes_the_same_table(tmp_path, monkeypatch):
    model = _conv_chain()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 3, 6, 6))
    ds = Dataset(x, model.forward(x) + rng.normal(0, 0.01, (8, 4, 6, 6)), metric="mse")
    calls = []
    real = tc.conv2d
    monkeypatch.setattr(tc, "conv2d", lambda *a, **k: calls.append(1) or real(*a, **k))
    run_debug(model, ds, out_dir=tmp_path / "resumed")
    # conv0..conv5 run in calibration, the float score and both stage-1
    # probes: 4 x 6. Quantizers: the six weights, then the outputs of conv5
    # and relu0..relu4 (conv k's own output shares relu k's). A pass reruns
    # each conv from the first node whose quantizers changed:
    #   stage 2: all on 6; weights only, conv0 keeps its value 5; activations
    #     only 6
    #   stage 4, one quantizer on: conv0.weight 6, conv1.weight 6 (conv0
    #     changed back), conv2..5.weight 5 + 4 + 3 + 2, conv5's output 1,
    #     relu0 5, relu1..relu4 5 + 4 + 3 + 2
    assert len(calls) == 4 * 6 + (6 + 5 + 6) + (6 + 6 + 5 + 4 + 3 + 2) + 1 + (5 + 5 + 4 + 3 + 2)
    calls.clear()
    with monkeypatch.context() as mp:
        mp.setattr(QuantSimModel, "forward", lambda sim, x: sim.graph.outputs(sim.evaluate_all(x)))
        run_debug(model, ds, out_dir=tmp_path / "full")
    assert len(calls) == 4 * 6 + 3 * 6 + 12 * 6
    resumed, full = ((tmp_path / d / "debug_layers.csv").read_bytes() for d in ("resumed", "full"))
    assert resumed == full and len(resumed.splitlines()) == 1 + 12

"""The benchmark's span tracer (perfbench/tracer.py) patches names of the
package by hand: every public function of each module, the FFT transforms,
``ScalarField.from_hat``, ``Grid.__post_init__`` and ``cli._sweep_worker``.
These tests install it against the package, run a small traced command,
and check that uninstalling restores every patched name, so a refactor
that renames one of them fails here rather than in ``--trace 1`` runs."""

import importlib
import sys
from pathlib import Path

import numpy.fft
import scipy.fft

import sqgd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracer import FFT_TRANSFORMS, SQGD_MODULES, Tracer, layer_metrics  # noqa: E402

MODULES = {short: importlib.import_module(f"sqgd.{short}") for short in SQGD_MODULES}


def namespace_state() -> dict:
    """Identity of every attribute the tracer may patch."""
    state = {}
    for ns in (sqgd, *MODULES.values(), numpy.fft, scipy.fft):
        for attr, obj in vars(ns).items():
            state[(ns.__name__, attr)] = id(obj)
    field_cls = MODULES["fields"].ScalarField
    grid_cls = MODULES["grid"].Grid
    state[("ScalarField", "from_hat")] = id(field_cls.__dict__["from_hat"])
    state[("Grid", "__post_init__")] = id(grid_cls.__dict__["__post_init__"])
    return state


def test_install_then_uninstall_restores_every_patch(tmp_path):
    before = namespace_state()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {key for key, ident in namespace_state().items() if before.get(key) != ident}
        assert ("ScalarField", "from_hat") in patched
        assert ("Grid", "__post_init__") in patched
        assert ("sqgd.cli", "_sweep_worker") in patched
        assert ("sqgd.integrator", "step") in patched
        assert all(("numpy.fft", name) in patched for name in FFT_TRANSFORMS)

        code = MODULES["cli"].main(["run", "--output-dir", str(tmp_path / "o"),
                                    "--n", "16", "--t-end", "0.05", "--A", "1",
                                    "--init", "random_smooth", "--init-kmax", "4",
                                    "--sample-every", "0.025", "--dt-max", "0.01"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert namespace_state() == before

    # main dispatches through the patched cmd_* name, so the command has a root span
    assert "cli.cmd_run" in {span[3] for span in tracer.spans}
    metrics = layer_metrics(tracer.spans, sweep_workers=1)
    assert metrics["fields.from_hat.calls"] > 0
    assert metrics["operators.advect.calls"] > 0
    assert metrics["fft.calls_per_step"] > 0
    assert metrics["integrator.step.ms_p50"] > 0

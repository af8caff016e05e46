"""The benchmark's trace hooks still reach every layer they must time.

perfbench/child.py replaces call-site names (say `trainer.e_step`) with
timing wrappers, and perfbench/run.py refuses a traced run in which a
required hook never fired.  This test installs the same tracer in-process
on the 8-sentence smoke corpora, so a refactor that moves a traced call
site fails here rather than only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from spanalign import cli, dtw, model, segmentation, trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"cli": cli, "trainer": trainer, "model": model, "dtw": dtw, "segmentation": segmentation}


def _load(name):
    """Import a perfbench script without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


child = _load("child")
run = _load("run")


def _traced(argv):
    """Run one command under child.Tracer; return the hooks that fired."""
    hooked = [*child.TIMED, *child.COUNTED]
    saved = {key: getattr(MODULES[key[0]], key[1]) for key in hooked}
    tracer = child.Tracer()
    try:
        tracer.install(MODULES)
        assert cli.main(argv) == 0
    finally:
        for (mod, attr), fn in saved.items():
            setattr(MODULES[mod], attr, fn)
    return {hook for hook, n in tracer.calls.items() if n}


@pytest.mark.parametrize("workload", ["smoke", "smoke-proper"])
def test_required_hooks_fire(tmp_path, workload):
    spec = run.WORKLOADS[workload]
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--output", str(corpus), "--seed", "0", *spec.synth]) == 0
    out = tmp_path / "run"
    fired = _traced([
        "align", "--manifest", str(corpus / "manifest.txt"), "--features", str(corpus),
        "--translations", str(corpus / "translations.txt"), "--output", str(out),
        "--threads", "1", *spec.align,
    ])
    eval_fired = _traced(["eval", str(out / "alignments.tsv"), str(corpus / "gold.tsv"),
                          "--output", str(tmp_path / "eval")])

    assert set(run.REQUIRED_ALIGN_HOOKS) - fired == set()
    assert set(run.REQUIRED_EVAL_HOOKS) - eval_fired == set()
    for variant, hook in run.VARIANT_HOOKS.items():
        assert (hook in fired) == (variant == spec.variant), hook


def test_fallback_counter_names():
    # perfbench/smoke_test.py::test_fallback_counter calls these names; tier-1
    # does not run that file, so a rename or removal fails here instead.
    hooked = [*child.TIMED, *child.COUNTED]
    saved = {key: getattr(MODULES[key[0]], key[1]) for key in hooked}
    tracer = child.Tracer()
    try:
        tracer.install(MODULES)
        with pytest.raises(segmentation.NoCandidateSpansError):
            segmentation.enumerate_spans([1, 2], segmentation.SilenceSpans(()), 3, 150)
    finally:
        for (mod, attr), fn in saved.items():
            setattr(MODULES[mod], attr, fn)
    assert tracer.record()["counts"]["segmentation.fallbacks"] == 1

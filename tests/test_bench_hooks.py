"""The benchmark's trace hooks still reach every layer they must time.

perfbench/child.py replaces call-site names (say `trainer.e_step`) with
timing wrappers, and perfbench/run.py refuses a traced run in which a
required hook never fired.  This test installs the same tracer in-process
on the 8-sentence smoke corpora, so a refactor that moves a traced call
site fails here rather than only in a traced benchmark run.  `tracing`
and `traced_smoke_run` are the one tracer harness of the bench tests.
"""

import functools
import importlib.util
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

from spanalign import cli, dtw, model, segmentation, trainer

from corpus_flags import corpus_flags

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


@contextmanager
def tracing():
    """child.Tracer installed on every traced call site for the block; the originals come back after."""
    saved = {key: getattr(MODULES[key[0]], key[1]) for key in [*child.TIMED, *child.COUNTED]}
    tracer = child.Tracer()
    try:
        tracer.install(MODULES)
        yield tracer
    finally:
        for (mod, attr), fn in saved.items():
            setattr(MODULES[mod], attr, fn)


@functools.cache
def traced_smoke_run(workload):
    """synth at seed 0, then a traced align and a traced eval of a smoke workload; (align, eval) tracers.

    Cached, so this test and test_bench_counts share one run per workload.
    """
    spec = run.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus", Path(tmp) / "run"
        assert cli.main(["synth", "--output", str(corpus), "--seed", "0", *spec.synth]) == 0
        with tracing() as align:
            argv = ["align", *corpus_flags(corpus), "--output", str(out), "--threads", "1", *spec.align]
            assert cli.main(argv) == 0
        with tracing() as evaluation:
            assert cli.main(["eval", str(out / "alignments.tsv"), str(corpus / "gold.tsv"),
                             "--output", str(Path(tmp) / "eval")]) == 0
    return align, evaluation


def _fired(tracer):
    return {hook for hook, n in tracer.calls.items() if n}


@pytest.mark.parametrize("workload", ["smoke", "smoke-proper"])
def test_required_hooks_fire(workload):
    align, evaluation = traced_smoke_run(workload)
    fired = _fired(align)

    assert set(run.REQUIRED_ALIGN_HOOKS) - fired == set()
    assert set(run.REQUIRED_EVAL_HOOKS) - _fired(evaluation) == set()
    for variant, hook in run.VARIANT_HOOKS.items():
        assert (hook in fired) == (variant == run.WORKLOADS[workload].variant), hook


def test_fallback_counter_names():
    # perfbench/smoke_test.py::test_fallback_counter calls these names; tier-1
    # does not run that file, so a rename or removal fails here instead.
    with tracing() as tracer, pytest.raises(segmentation.NoCandidateSpansError):
        segmentation.enumerate_spans([1, 2], segmentation.SilenceSpans(()), 3, 150)
    assert tracer.record()["counts"]["segmentation.fallbacks"] == 1

"""Smoke test of the benchmark itself, on tiny corpora; takes a few seconds.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

It runs run.py untraced and traced on both scoring variants, checks
that every metric BENCHMARK.json names is printed with its unit, that
exact counts repeat, that the output and F checks catch broken
alignments, and that the benchmark refuses a directory without the
program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, sorted(set(expected) ^ set(got))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_end_to_end_metrics():
    result = result_of(bench("smoke", 0))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_metrics_and_exact_counts():
    for workload in ("smoke", "smoke-proper"):
        first = result_of(bench(workload, 1))
        assert_metrics(first, SPEC["per_layer"])
        second = result_of(bench(workload, 1))
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
            for r in (first, second)
        ]
        assert counts[0] == counts[1]
        assert counts[0]["dtw.dp_cells"] > 0


def test_output_checks_catch_defects():
    tmp_path = ROOT / ".perfbench_work" / "smoke-checks"
    tmp_path.mkdir(parents=True, exist_ok=True)
    corpus = run.Corpus(tmp_path, {("u", 0): "ab", ("u", 1): "cd"}, {"u": 10}, {("u", 0, 0), ("u", 1, 5)})
    good = "u\t0\tab\t0\t0\t5\t-1.5\nu\t1\tcd\t1\t5\t10\t-2.5\n"
    bad = {
        "duplicate row": "u\t0\tab\t0\t0\t5\t-1.5\nu\t0\tab\t0\t0\t5\t-1.5\n",
        "span past the end": "u\t0\tab\t0\t0\t5\t-1.5\nu\t1\tcd\t1\t5\t11\t-2.5\n",
        "non-finite score": "u\t0\tab\t0\t0\t5\t-inf\nu\t1\tcd\t1\t5\t10\t-2.5\n",
        "wrong word": "u\t0\tab\t0\t0\t5\t-1.5\nu\t1\txy\t1\t5\t10\t-2.5\n",
    }
    path = tmp_path / "alignments.tsv"
    path.write_text(good, encoding="utf-8")
    problems, f_score = run.check_alignments(corpus, path)
    assert problems == [] and math.isclose(f_score, 2 * 0.2 / 1.2)
    for what, text in bad.items():
        path.write_text(text, encoding="utf-8")
        assert run.check_alignments(corpus, path)[0], what
    shutil.rmtree(tmp_path)


def test_f_checks():
    c5 = run.WORKLOADS["c5"]
    recorded = run.recorded_baseline(c5, 0)
    assert recorded is not None and run.recorded_baseline(c5, 123456) is None
    f0 = recorded["f_score"]
    assert run.f_problems(c5, recorded, f0) == []
    assert run.f_problems(c5, recorded, f0 - run.F_TOLERANCE / 2) == []
    assert run.f_problems(c5, recorded, f0 - 2 * run.F_TOLERANCE)
    assert run.f_problems(c5, None, c5.f_floor - 0.01)


def test_fallback_counter():
    # No workload triggers the fallback, so call the hooked function directly.
    modules = child._import_spanalign(ROOT / "src")
    tracer = child.Tracer()
    tracer.install(modules)
    seg = modules["segmentation"]
    try:
        seg.enumerate_spans([1, 2], seg.SilenceSpans(()), 3, 150)
    except seg.NoCandidateSpansError:
        pass
    assert tracer.record()["counts"]["segmentation.fallbacks"] == 1


def test_refuses_checkout_without_sources():
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("smoke", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")

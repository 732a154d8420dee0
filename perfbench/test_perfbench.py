"""The benchmark's own tests: reference gate, tracer reach, and a run without sources.

Run from the repository root with ``python3 -m pytest perfbench``. The reach
tests run each workload once untraced and once traced (about two minutes).
"""

import copy
import json
import random
import shutil
import subprocess
import sys

import pytest

import bench
import run
import tracer as tracer_mod

ealie = bench.import_ealie()

# Counters the prediction table says must see work on each workload.
REACH = {
    "check-affinized": ["quantum_torus.mul_calls", "decomp.basis_bracket_calls",
                        "constructions.bracket_calls", "axioms.T1_triples_checked"],
    "ears-torus-w3": ["finroot.root_string_calls", "decomp.member_calls", "ears.EARS_s"],
    "check-sqrt": ["exact_arith.sqrt_ops", "exact_arith.sqrt_mul_ns", "linalg.solve_calls"],
}


def test_wrong_reference_counts_as_failure():
    reference = bench.load_reference("check-sqrt")
    assert [v.ok for v in run.measure(ealie.cli, "check-sqrt", 3, 0, reference)] == [True]

    flipped = copy.deepcopy(reference)
    flipped["checks"][0][2] = not flipped["checks"][0][2]
    wrong_exit = dict(reference, exit_code=1)
    for wrong in (flipped, wrong_exit):
        assert [v.ok for v in run.measure(ealie.cli, "check-sqrt", 3, 0, wrong)] == [False]


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tracer_reaches_every_predicted_layer(workload):
    reference = bench.load_reference(workload)
    tracer, untraced, traced = run.traced(ealie.cli, workload, 5, reference)
    assert untraced.ok and traced.ok
    assert untraced.summary == traced.summary, "traced and untraced verdicts differ"
    metrics = tracer.metrics(5, traced.wall_s, untraced.wall_s, bench.t1_triples_checked(traced.report))
    for name in REACH[workload]:
        assert metrics[name][0] > 0, f"{name} saw no work on {workload}"
    assert tracer.spans and tracer.spans[0]["name"] == "verdict"
    assert all(span["end"] is not None for span in tracer.spans)


def test_wrappers_cover_every_alias_and_are_removed():
    tracer = tracer_mod.Tracer(0)
    tracer.install()
    try:
        patched = list(tracer._patches)
        originals = {id(original) for _, _, original in patched}
        modules = [m for name, m in sys.modules.items()
                   if (name == "ealie" or name.startswith("ealie.")) and name not in tracer_mod._KERNEL_IMPLS]
        for module in modules:
            for key, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{key} escaped the tracer"
        for module, key in [(ealie.cli, "decompose_window"), (ealie.cli, "check_T"),
                            (ealie.linalg, "int_echelon"), (ealie.axioms, "int_rank"),
                            (ealie.ears, "root_string"), (ealie.exact_arith, "solve_dense")]:
            assert hasattr(getattr(module, key), "__wrapped__"), f"{module.__name__}.{key} not wrapped"
        assert hasattr(ealie.exact_arith.GaussianRational.__radd__, "__wrapped__")
    finally:
        tracer.uninstall()
    for place, key, original in patched:
        assert vars(place)[key] is original
    assert not tracer._patches


def test_reservoir_is_a_bounded_seeded_sample():
    picks = []
    for _ in range(2):
        sample = tracer_mod._Reservoir(100, random.Random(7))
        for i in range(100_000):
            sample.offer(i)
        picks.append(sample.items)
    assert picks[0] == picks[1] and len(picks[0]) == 100 and len(set(picks[0])) == 100
    assert 30_000 < sum(picks[0]) / 100 < 70_000


def test_metric_names_match_benchmark_json():
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in tracer_mod.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in tracer_mod.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-sqrt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Fast checks of the benchmark harness itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import filecmp
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


class Few:
    """The first `count` queries of each named kind from a workload's batch."""

    def __init__(self, workload, kinds, count=2):
        self.name = workload.name
        self.universe_members = workload.universe_members
        self.universe_build_s = workload.universe_build_s
        self.queries = [q for kind in kinds
                        for q in [q for q in workload.queries if q.kind == kind][:count]]


def one_pass(queries, **kwargs):
    return run.drive(queries, stop=len(queries), **kwargs)[0]


@pytest.fixture(scope="module")
def search(tmp_path_factory):
    w = workloads.build("search", 7, tmp_path_factory.mktemp("search"))
    w.setup()
    return w


@pytest.fixture(scope="module")
def lang(tmp_path_factory):
    w = workloads.build("lang", 7, tmp_path_factory.mktemp("lang"))
    w.setup()
    return w


def test_batches_have_at_least_100_distinct_queries(search, lang):
    for w in (search, lang):
        assert len(w.queries) >= 100


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    # `search` runs by hand only: it could not be made steady on the shared host
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"search"}


def test_traced_and_untraced_runs_agree_and_report_every_layer(search, lang):
    for w, kinds in ((search, ["orient.cycle", "orient.small", "hom", "core"]),
                     (lang, ["lang.structure", "spectrum", "holes", "translate"])):
        few = Few(w, kinds)
        plain = one_pass(few.queries, clear=workloads.clear_invocation_caches,
                         fingerprints=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = one_pass(few.queries, tracer=tracer, fingerprints=True,
                              clear=workloads.clear_invocation_caches)
        finally:
            tracer.uninstall()
        assert run.verdicts(plain) == run.verdicts(traced)
        layers = run.layer_metrics(tracer, few, 0.0)
        assert set(layers) == set(run.PER_LAYER)
        assert all(isinstance(v, (int, float)) for v in layers.values())
    assert layers["cli.self_s"] > 0 and layers["words.period_structure.self_s"] > 0


def test_recursion_probe_is_reported_apart_from_the_measured_queries(search):
    assert not any(q.kind.endswith(".probe") for q in search.queries)
    probes = run.run_probes(search, workloads.clear_invocation_caches)
    assert [p["kind"] for p in probes] == ["hom.probe"]
    assert probes[0]["error"].startswith("RecursionError")


def test_latency_is_the_best_sample_and_a_failed_query_is_infinitely_slow():
    records = [(0, "a", 0.3, None), (0, "a", 0.1, None), (1, "b", 0.2, None),
               (2, "c", 0.05, "RecursionError: deep"), (2, "c", 0.05, "RecursionError: deep")]
    stats = run.summarize(records)
    assert stats["throughput_qps"] == pytest.approx(2 / 0.3)
    assert stats["latency_p50_ms"] == pytest.approx(200)
    assert stats["latency_p90_ms"] == math.inf
    assert (stats["attempted"], stats["failed"], stats["queries"]) == (5, 2, 3)
    assert stats["samples_per_query"] == [1, 2]


def test_passes_continue_across_processes(search):
    queries = Few(search, ["hom", "core"]).queries
    first, end = run.drive(queries, start=0, stop=3)
    second, end = run.drive(queries, start=end, stop=2 * len(queries))
    assert [r[0] for r in first + second] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_wrong_expected_verdict_stops_the_run(search, monkeypatch):
    truth = workloads.family_verdict
    monkeypatch.setattr(workloads, "family_verdict", lambda *a: not truth(*a))
    fresh = workloads.build("search", 8, search.dir.parent / "wrong")
    fresh.setup()
    with pytest.raises(oracles.VerdictError):
        one_pass(Few(fresh, ["orient.cycle"], 1).queries)


def test_inputs_are_byte_identical_per_seed(tmp_path):
    dirs = []
    for i, seed in enumerate((3, 3, 4)):
        w = workloads.build("lang", seed, tmp_path / str(i))
        w.setup()
        dirs.append(tmp_path / str(i))
    same = filecmp.dircmp(dirs[0], dirs[1])
    assert not same.diff_files and not same.left_only and not same.right_only
    assert filecmp.dircmp(dirs[0], dirs[2]).diff_files


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "lang",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

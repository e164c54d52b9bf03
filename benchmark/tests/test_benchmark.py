"""Self-tests of the benchmark harness: python3 -m pytest -q benchmark/tests"""

import json

import pytest

import run
import tracer as tracing
import worker
import workloads
from latcirc import cli, gauge, perturbation, propagator, quadrature
from latcirc.kinematics import LatticeParams


def _inputs(workload, seed, index, workdir):
    workdir.mkdir()
    jobs = workloads.make_round(workload, seed, index, str(workdir))
    return json.dumps([(job.name, job.params) for job in jobs], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = _inputs(workload, 7, 1, tmp_path / "a")
    assert first == _inputs(workload, 7, 1, tmp_path / "b")
    assert first != _inputs(workload, 8, 1, tmp_path / "c")
    assert first != _inputs(workload, 7, 2, tmp_path / "d")


def test_wrong_reference_counts_as_failure(tmp_path):
    right = workloads._cli_job("cli movers", ["movers", "--L", 16], {}, str(tmp_path), 0,
                               lambda report: None, "json")
    wrong = workloads._cli_job("cli movers", ["movers", "--L", 16], {}, str(tmp_path), 1,
                               lambda report: workloads._within(1.0, report["residual"],
                                                                "residual vs wrong reference"),
                               "json")

    def boom():
        raise RuntimeError("no such call")

    raising = workloads.Job("raising", {}, boom, lambda value: None)
    records = [worker.run_job(job) for job in (right, wrong, raising)]
    assert [r["ok"] for r in records] == [True, False, False]
    assert "wrong reference" in records[1]["reason"]
    assert records[2]["reason"] == "RuntimeError: no such call"
    metrics, _ = run.end_to_end(records, [{"jobs": 3, "ok": 1, "wall_s": 1.0, "cpu_s": 1.0}],
                                peak_rss_mib=1.0)
    assert metrics["ok_ratio"]["value"] == pytest.approx(1 / 3)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(1.0)


def test_known_gauge_check_defect_is_one_failed_job(tmp_path, capsys):
    records = [worker.run_job(workloads.known_defect_probe(str(tmp_path)))]
    if records[0]["ok"]:
        pytest.skip("gauge-check --N 3 now succeeds: the dense-cap defect is fixed")
    assert records[0]["reason"] == "exit code 3"
    assert "resource cap exceeded" in capsys.readouterr().err
    assert sum(not r["ok"] for r in records) == 1


def test_tracer_restores_every_namespace():
    before = tracing.snapshot()
    original = quadrature.midpoint_nodes
    tracer = tracing.Tracer()
    with tracer:
        # names imported into other modules are wrapped at those call sites too
        for namespace in (quadrature, cli, propagator, perturbation):
            assert namespace.midpoint_nodes.__wrapped__ is original
        assert tracing.snapshot() != before
        params = LatticeParams(a=0.1, m=1.0)
        query = propagator.PropagatorQuery(params, 0.5, 0.25, 1e-3)
        propagator.feynman_momentum(query)  # outside a job: not recorded
        with tracer.job(0, "probe"):
            value = propagator.feynman_momentum(query)
            gauge.gauge_transform(gauge.GaugeLattice(1, 2), gauge.GaugeGroupZN(2),
                                  [0, 1]).dense()
    assert tracing.snapshot() == before
    assert value == propagator.feynman_momentum(query)
    assert tracer.calls["propagator.feynman_momentum"] == 1
    assert tracer.calls["kinematics.cosine_symbol"] == 1
    assert tracer.calls["gauge.dense"] == 1
    names = {span[3]: span for span in tracer.spans}
    root = names["job.probe"]
    assert names["propagator.feynman_momentum"][1] == root[0]
    assert names["kinematics.cosine_symbol"][1] == names["propagator.feynman_momentum"][0]
    metrics = tracer.metrics(overhead_ratio=0.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["gauge.dim_max_over_cap"]["value"] == 16 / tracing.GAUGE_STATE_CAP

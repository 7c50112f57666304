"""Seeded workload generation and the output check behind failed_frac."""

import json
from itertools import islice

import pytest

from g2frames import cli
from perfbench import metrics
from perfbench.run import ROOT
from perfbench.workloads import WHY, WORKLOADS, Scenario, check_report, rounds


def _configs(workload, seed, count=2):
    return [sc.config for rnd in islice(rounds(workload, seed), count) for sc in rnd]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_configs_other_seed_other_configs(workload):
    assert _configs(workload, 7) == _configs(workload, 7)
    assert _configs(workload, 7) != _configs(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_configs_are_accepted_by_the_runner(workload):
    for config in _configs(workload, 3, count=4):
        assert cli.RunConfig.from_dict(config).to_dict()["model"] == config["model"]


def test_disk_work_only_in_x_disk():
    assert all(c["profile"]["s"] >= 0 for c in _configs("x-sweep", 5, count=6))
    assert all(c["profile"]["s"] < 0 for c in _configs("x-disk", 5, count=6))
    assert all(c["space"] == "P" for c in _configs("p-sweep", 5))


def test_every_workload_says_why_in_one_line():
    for workload in WORKLOADS:
        assert "\n" not in WHY[workload] and 0 < len(WHY[workload]) <= 200


def test_committed_manifest_matches_the_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.manifest()


def _report(scenario):
    return cli.run(cli.RunConfig.from_dict(scenario.config)).to_json()


@pytest.fixture(scope="module")
def parallel_x():
    sc = next(sc for sc in next(rounds("x-sweep", 2)) if sc.tuning == "parallel")
    sc = Scenario(dict(sc.config, probes=2), sc.tuning)
    return sc, _report(sc)


def test_check_accepts_a_correct_report(parallel_x):
    sc, text = parallel_x
    assert "x/parallel" in sc.expected_checks()
    assert check_report(text, sc) == []


def test_check_rejects_a_record_flipped_to_failing(parallel_x):
    sc, text = parallel_x
    doc = json.loads(text)
    doc["records"][3]["pass"] = False
    assert check_report(json.dumps(doc), sc)


def test_check_rejects_a_value_over_its_tolerance(parallel_x):
    sc, text = parallel_x
    doc = json.loads(text)
    doc["records"][0]["maxResidual"] = 2 * doc["records"][0]["tolerance"]
    assert check_report(json.dumps(doc), sc)


def test_check_rejects_a_missing_check_and_a_wrong_label(parallel_x):
    sc, text = parallel_x
    doc = json.loads(text)
    doc["records"] = [r for r in doc["records"] if r["check"] != "x/parallel"]
    assert any("missing ['x/parallel']" in p for p in check_report(json.dumps(doc), sc))
    doc = json.loads(text)
    doc["torsionLabel"] = "pure W3"
    assert any("label" in p for p in check_report(json.dumps(doc), sc))


@pytest.mark.parametrize("tuning", ["nearly", "w3"])
def test_tuned_p_scenarios_select_their_closed_form_records(tuning):
    tuned = [sc for sc in next(rounds("p-sweep", 4)) if sc.tuning == tuning]
    assert tuned
    for sc in tuned:
        small = Scenario(dict(sc.config, probes=2), sc.tuning)
        assert check_report(_report(small), small) == []

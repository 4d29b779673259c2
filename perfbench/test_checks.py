"""The output checks catch tampered results.

Run with ``python3 -m pytest perfbench``.  Small generated inputs keep
this fast; the checks are the same ones every benchmark pass goes
through.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import loadgen  # noqa: E402
from worker import log_digest  # noqa: E402


@pytest.fixture(scope="module")
def replayed():
    from repro.online import generate_trace, make_policy, replay

    trace = generate_trace("line", events=600, seed=3, departure_prob=0.35,
                           workload={"n_slots": 120})
    result = replay(trace, make_policy("preempt-density", factor=1.2))
    assert result.eviction_log, "fixture should exercise evictions"
    doc = json.loads(json.dumps(result.metrics.to_dict()))
    logs = json.loads(json.dumps({"admission_log": result.admission_log,
                                  "eviction_log": result.eviction_log}))
    profits = {d.demand_id: d.profit for d in trace.problem.demands}
    return trace, result, doc, logs, profits


def _check(doc, logs, profits, n_events, ref_digest):
    digest = log_digest(logs["admission_log"], logs["eviction_log"])
    return checks.check_replay(doc, logs, digest, profits, n_events,
                               ref_digest=ref_digest)


def test_honest_replay_passes(replayed):
    trace, result, doc, logs, profits = replayed
    ref = log_digest(result.admission_log, result.eviction_log)
    assert _check(doc, logs, profits, len(trace.events), ref) == []


def test_wrong_replay_profit_is_caught(replayed):
    trace, result, doc, logs, profits = replayed
    ref = log_digest(result.admission_log, result.eviction_log)
    bad = dict(doc, realized_profit=doc["realized_profit"] * 1.01)
    assert _check(bad, logs, profits, len(trace.events), ref)


def test_flipped_replay_decision_is_caught(replayed):
    trace, result, doc, logs, profits = replayed
    ref = log_digest(result.admission_log, result.eviction_log)
    admitted = {d for d, _i in logs["admission_log"]}
    rejected = next(d for d in profits if d not in admitted)
    bad = copy.deepcopy(logs)
    # Swap one admitted demand for one the policy rejected, keeping the
    # counts intact so only the decision itself differs.
    bad["admission_log"][0] = [rejected, 0]
    problems = _check(doc, bad, profits, len(trace.events), ref)
    assert any("differ from the reference" in p for p in problems)


@pytest.fixture(scope="module")
def solved():
    from repro.algorithms import registry
    from repro.io import solution_to_dict
    from repro.workloads import random_tree_problem

    problem = random_tree_problem(n=64, m=60, r=2, seed=5)
    sol = registry.solve("tree-unit", problem, epsilon=0.1, seed=0,
                         mis="luby")
    return problem, json.loads(json.dumps(solution_to_dict(sol)))


def test_honest_solution_passes(solved):
    problem, doc = solved
    assert checks.check_solution(problem, doc) == []


def test_wrong_solution_profit_is_caught(solved):
    problem, doc = solved
    bad = dict(doc, profit=doc["profit"] + 1.0)
    assert checks.check_solution(problem, bad)


def test_flipped_solution_decision_is_caught(solved):
    problem, doc = solved
    bad = copy.deepcopy(doc)
    # Drop one selected instance: still feasible, but the stated profit
    # no longer matches what is selected.
    bad["selected"].pop()
    assert checks.check_solution(problem, bad)


def test_infeasible_solution_is_caught(solved):
    problem, doc = solved
    bad = copy.deepcopy(doc)
    bad["selected"].append(bad["selected"][0])
    assert checks.check_solution(problem, bad)


@pytest.fixture(scope="module")
def responses():
    from repro.io import event_to_dict
    from repro.online import generate_trace, make_policy
    from repro.service import AdmissionService
    from repro.session import AdmissionSession

    trace = generate_trace("line", events=300, seed=4, departure_prob=0.35,
                           workload={"n_slots": 80})
    svc = AdmissionService(trace, "greedy-threshold")
    replies = [json.dumps(svc.handle({"op": "submit", "id": i,
                                      "event": event_to_dict(ev)})).encode()
               for i, ev in enumerate(trace.events)]
    session = AdmissionSession(trace.problem,
                               make_policy("greedy-threshold"))
    ref = []
    for ev in trace.events:
        d = session.submit(ev)
        ref.append(([list(p) for p in d.admitted],
                    [list(p) for p in d.evicted]))
    return replies, ref, svc.close(), session.close()


def test_honest_responses_pass(responses):
    replies, ref, served, replayed = responses
    assert checks.check_responses(replies, ref) == []
    assert checks.check_metrics_equal(served.metrics.to_dict(),
                                      replayed.metrics) == []


def test_flipped_response_is_caught(responses):
    replies, ref, _served, _replayed = responses
    k = next(i for i, (adm, _ev) in enumerate(ref) if adm)
    doc = json.loads(replies[k])
    doc["decision"]["admitted"] = []
    bad = list(replies)
    bad[k] = json.dumps(doc).encode()
    assert len(checks.check_responses(bad, ref)) == 1


def test_missing_and_failed_responses_are_counted(responses):
    replies, ref, _served, _replayed = responses
    bad = list(replies[:-2])
    bad[0] = json.dumps({"ok": False, "id": 0, "error": "x"}).encode()
    assert len(checks.check_responses(bad, ref)) == 3


def test_wrong_final_profit_is_caught(responses):
    _replies, _ref, served, replayed = responses
    doc = served.metrics.to_dict()
    doc["realized_profit"] += 1.0
    assert checks.check_metrics_equal(doc, replayed.metrics)


def test_schedule_covers_each_step():
    due = loadgen.schedule([(1000.0, 3), (2000.0, 2)])
    assert due == pytest.approx([0.0, 0.001, 0.002, 0.003, 0.0035])

"""Tests for the admission service: journal, warm restart, request API.

The load-bearing guarantee is the warm-restart property the CI smoke
job also exercises end to end: killing a journaled service after *any*
event prefix and resuming from the journal finishes the trace with a
result identical (timing aside) to an uninterrupted replay — for every
registered policy.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.io import (
    JOURNAL_FORMATS,
    JournalWriter,
    event_to_dict,
    read_journal,
    save_trace,
)
from repro.online import (
    POLICY_NAMES,
    generate_trace,
    make_policy,
    poisson_trace,
    replay,
)
from repro.online.metrics import deterministic_metrics
from repro.service import AdmissionService, serve_lines
from repro.service.server import decode_request

#: Per-policy constructor params for the restart property (small flush
#: cadence so batch-resolve actually batches inside the short trace).
POLICY_PARAMS = {
    "greedy-threshold": {},
    "dual-gated": {},
    "batch-resolve": {"solver": "greedy", "resolve_every": 8},
    "preempt-density": {"factor": 1.2},
    "preempt-dual-gated": {"penalty": 0.1},
}


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace("line", events=60, process="bursty", seed=11,
                          departure_prob=0.4, tick_every=6.0)


def _drain(service, events):
    for ev in events:
        service.submit_event(ev)


class TestJournalRoundTrip:
    def test_header_and_events_round_trip(self, small_trace, tmp_path):
        path = str(tmp_path / "j.log")
        header = {"policy": "dual-gated", "params": {"eta": 1.5},
                  "trace": __import__("repro.io", fromlist=["trace_to_dict"]
                                      ).trace_to_dict(small_trace)}
        with JournalWriter(path, header) as jw:
            for ev in small_trace.events:
                jw.append(ev)
        back_header, events, good = read_journal(path)
        assert back_header["policy"] == "dual-gated"
        assert back_header["params"] == {"eta": 1.5}
        assert events == small_trace.events  # frozen dataclasses: exact
        assert good == os.path.getsize(path)

    def test_torn_final_line_dropped(self, small_trace, tmp_path):
        path = str(tmp_path / "j.log")
        svc = AdmissionService(small_trace, "greedy-threshold",
                               journal_path=path)
        _drain(svc, small_trace.events[:10])
        svc.journal.close()
        with open(path, "a") as fh:
            fh.write('{"type": "arrival", "time": 9')  # torn by a kill
        header, events, good = read_journal(path)
        assert len(events) == 10
        # Resuming truncates the torn tail and appends cleanly.
        resumed = AdmissionService.resume(path)
        assert resumed.position == 10
        resumed.submit_event(small_trace.events[10])
        header2, events2, _ = read_journal(path)
        assert len(events2) == 11

    def test_newline_less_tail_treated_as_torn(self, small_trace,
                                               tmp_path):
        """A kill can land between a record's bytes and its newline;
        the parseable-but-unterminated tail must be dropped so that
        good_bytes and the recovered events describe the same prefix
        (a glued '}{' line would silently lose two events on the
        *second* restart otherwise)."""
        path = str(tmp_path / "j.log")
        svc = AdmissionService(small_trace, "greedy-threshold",
                               journal_path=path)
        _drain(svc, small_trace.events[:8])
        svc.journal.close()
        with open(path, "r+") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 1)  # shave exactly the final '\n'
        header, events, good = read_journal(path)
        assert len(events) == 7  # the unterminated record is torn
        resumed = AdmissionService.resume(path)
        assert resumed.position == 7
        resumed.submit_event(small_trace.events[7])
        # The journal stayed line-clean: a further restart sees 8 events.
        _, events2, _ = read_journal(path)
        assert len(events2) == 8
        assert events2 == small_trace.events[:8]

    def test_mid_file_corruption_rejected(self, small_trace, tmp_path):
        path = str(tmp_path / "j.log")
        svc = AdmissionService(small_trace, "greedy-threshold",
                               journal_path=path)
        _drain(svc, small_trace.events[:5])
        svc.journal.close()
        lines = open(path).read().splitlines()
        lines[2] = '{"type": "arr'  # torn *before* later records
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt journal"):
            read_journal(path)

    def test_not_a_journal_rejected(self, small_trace, tmp_path):
        path = str(tmp_path / "notes.jsonl")
        with open(path, "w") as fh:
            fh.write('{"kind": "trace"}\n')
        with pytest.raises(ValueError, match="not an admission journal"):
            read_journal(path)
        # A multi-line JSON document (e.g. a saved trace) fails the
        # line-format check outright.
        trace_path = str(tmp_path / "trace.json")
        save_trace(small_trace, trace_path)
        with pytest.raises(ValueError, match="corrupt journal"):
            read_journal(trace_path)

    def test_fresh_writer_refuses_existing_file(self, small_trace, tmp_path):
        path = str(tmp_path / "j.log")
        AdmissionService(small_trace, "greedy-threshold",
                         journal_path=path).journal.close()
        with pytest.raises(ValueError, match="already exists"):
            JournalWriter(path, {"policy": "x"})


class TestWarmRestartEquivalence:
    """Kill at every event k + resume == uninterrupted, all policies."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_kill_at_every_event(self, small_trace, tmp_path, policy):
        params = POLICY_PARAMS[policy]
        full = replay(small_trace, make_policy(policy, **params))
        want_metrics = deterministic_metrics(full.metrics)
        for k in range(len(small_trace.events) + 1):
            path = str(tmp_path / f"{policy}-{k}.log")
            svc = AdmissionService(small_trace, policy, params,
                                   journal_path=path)
            _drain(svc, small_trace.events[:k])
            del svc  # the kill: no close(), journal flushed per record
            resumed = AdmissionService.resume(path)
            assert resumed.position == k
            result = resumed.run_remaining()
            assert deterministic_metrics(result.metrics) == want_metrics
            assert result.admission_log == full.admission_log
            assert result.eviction_log == full.eviction_log
            assert result.policy_stats == full.policy_stats

    def test_double_restart(self, small_trace, tmp_path):
        """Kill → resume → kill again → resume: journals compose."""
        full = replay(small_trace, make_policy("dual-gated"))
        path = str(tmp_path / "j.log")
        svc = AdmissionService(small_trace, "dual-gated",
                               journal_path=path)
        _drain(svc, small_trace.events[:15])
        del svc
        second = AdmissionService.resume(path)
        _drain(second, small_trace.events[15:35])
        del second
        third = AdmissionService.resume(path)
        assert third.position == 35
        result = third.run_remaining()
        assert deterministic_metrics(result.metrics) == \
            deterministic_metrics(full.metrics)


class TestRequestAPI:
    def test_admit_release_query_stats_close(self):
        tr = poisson_trace("line", events=40, seed=7, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold")
        r = svc.handle({"op": "admit", "demand": 0, "time": 1.0})
        assert r["ok"] and r["decision"]["kind"] == "arrival"
        q = svc.handle({"op": "query", "demand": 0})
        assert q["ok"] and q["admitted"] == r["decision"]["accepted"]
        s = svc.handle({"op": "stats"})
        assert s["ok"] and s["stats"]["arrivals"] == 1
        assert s["stats"]["position"] == 1
        rel = svc.handle({"op": "release", "demand": 0, "time": 2.0})
        assert rel["ok"]
        snap = svc.handle({"op": "snapshot"})
        assert snap["ok"] and snap["solution"]["selected"] == []
        c = svc.handle({"op": "close"})
        assert c["ok"] and c["metrics"]["arrivals"] == 1
        json.dumps(c)

    def test_domain_errors_are_responses(self):
        tr = poisson_trace("line", events=40, seed=7, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold")
        assert not svc.handle({"op": "warp"})["ok"]
        # Malformed submit payloads must come back as errors, never
        # crash the serve loop (regression: non-dict event records).
        assert not svc.handle({"op": "submit", "event": "x"})["ok"]
        assert not svc.handle({"op": "submit", "event": [1, 2]})["ok"]
        assert not svc.handle({"op": "submit"})["ok"]
        assert not svc.handle({"op": "admit"})["ok"]  # no demand field
        assert "unknown demand" in \
            svc.handle({"op": "admit", "demand": 10**6})["error"]
        svc.handle({"op": "admit", "demand": 3, "time": 1.0})
        assert "arrives twice" in \
            svc.handle({"op": "admit", "demand": 3})["error"]
        assert "before arriving" in \
            svc.handle({"op": "release", "demand": 4})["error"]
        svc.handle({"op": "release", "demand": 3})
        assert "departs twice" in \
            svc.handle({"op": "release", "demand": 3})["error"]
        # Errors never advanced the stream.
        assert svc.stats()["position"] == 2
        svc.handle({"op": "close"})
        assert "closed" in svc.handle({"op": "tick"})["error"]

    @pytest.mark.parametrize("req", [[], "x", 3, None, [{"op": "tick"}]],
                             ids=["list", "str", "int", "null", "batch"])
    def test_non_object_request_is_an_error_response(self, tmp_path, req):
        tr = poisson_trace("line", events=30, seed=9, departure_prob=0.0)
        path = tmp_path / "j.log"
        svc = AdmissionService(tr, "greedy-threshold",
                               journal_path=str(path))
        svc.handle({"op": "admit", "demand": 0, "time": 1.0})
        svc.journal.commit()
        journal_before = path.read_bytes()
        snap_before = svc.session.snapshot()
        resp = svc.handle(req)
        assert resp == {"ok": False,
                        "error": "request must be a JSON object"}
        svc.journal.commit()
        assert path.read_bytes() == journal_before
        assert svc.session.snapshot() == snap_before
        assert svc.position == 1

    def test_serve_lines_transport(self, tmp_path):
        tr = poisson_trace("line", events=30, seed=9, departure_prob=0.0)
        svc = AdmissionService(tr, "greedy-threshold",
                               journal_path=str(tmp_path / "j.log"))
        lines = ["not json", json.dumps(["a", "list"])]
        lines += [json.dumps({"op": "submit", "event": event_to_dict(ev)})
                  for ev in tr.events]
        lines.append(json.dumps({"op": "close"}))
        out: list[dict] = []
        closed = serve_lines(svc, lines, out.append)
        assert closed is not None and closed["ok"]
        assert not out[0]["ok"] and "bad request JSON" in out[0]["error"]
        assert not out[1]["ok"]
        assert all(r["ok"] for r in out[2:])
        assert closed["metrics"]["events"] == len(tr.events)


def _strict_json(resp: dict) -> dict:
    """Round-trip a response through a parser that refuses the
    non-standard ``NaN``/``Infinity`` tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(json.dumps(resp), parse_constant=refuse)


#: Values no event field may carry (the record spec coerces nothing).
HOSTILE_TIMES = [math.nan, math.inf, -math.inf, "1e3"]
HOSTILE_IDS = [True, 1.7, "3", -1]


def _hostile_requests():
    """``(id, request)`` pairs; demand 0 has arrived, demand 1 has not,
    so each request is wrong in exactly one field."""
    good = {"type": "arrival", "time": 2.0, "demand": 1}
    cases = []
    for t in HOSTILE_TIMES:
        bad = {"type": "arrival", "time": t, "demand": 1}
        for op, req in [
            ("admit", {"op": "admit", "demand": 1, "time": t}),
            ("release", {"op": "release", "demand": 0, "time": t}),
            ("tick", {"op": "tick", "time": t}),
            ("submit", {"op": "submit", "event": bad}),
            ("feed", {"op": "feed", "events": [
                good, {"type": "tick", "time": t}]}),
        ]:
            cases.append((f"{op}-time-{t!r}", req))
    for d in HOSTILE_IDS:
        for op, req in [
            ("admit", {"op": "admit", "demand": d, "time": 2.0}),
            ("release", {"op": "release", "demand": d, "time": 2.0}),
            ("submit", {"op": "submit", "event": {
                "type": "departure", "time": 2.0, "demand": d}}),
            ("query", {"op": "query", "demand": d}),
            ("explain", {"op": "explain", "demand": d}),
            ("feed", {"op": "feed", "events": [
                good, {"type": "arrival", "time": 3.0, "demand": d}]}),
        ]:
            cases.append((f"{op}-id-{d!r}", req))
    cases.append(("trace-last-inf", {"op": "trace", "last": math.inf}))
    # Non-event fields are not coerced either: ``verify`` is a JSON
    # bool, ``last`` a non-bool int >= 0.
    for v in ["no", 0, 1, None]:
        cases.append((f"close-verify-{v!r}", {"op": "close", "verify": v}))
    for last in [2.7, "5", True, -1]:
        cases.append((f"trace-last-{last!r}", {"op": "trace", "last": last}))
    return cases


_HOSTILE = _hostile_requests()


class TestHostileInput:
    """Every boundary applies the one event spec: a request that breaks
    it gets an ``ok: false`` response a strict JSON parser can read, and
    changes neither the journal nor the session."""

    @pytest.mark.parametrize("req", [r for _, r in _HOSTILE],
                             ids=[i for i, _ in _HOSTILE])
    def test_rejected_without_side_effects(self, tmp_path, req):
        tr = poisson_trace("line", events=30, seed=9, departure_prob=0.0)
        path = tmp_path / "j.log"
        svc = AdmissionService(tr, "greedy-threshold",
                               journal_path=str(path))
        assert svc.handle({"op": "admit", "demand": 0, "time": 1.0})["ok"]
        journal_before = path.read_bytes()
        snap_before = svc.session.snapshot()
        resp = _strict_json(svc.handle(req))
        assert resp["ok"] is False and resp["error"]
        svc.journal.commit()
        assert path.read_bytes() == journal_before
        assert svc.session.snapshot() == snap_before
        assert svc.position == 1
        # The same service still takes a valid request afterwards.
        assert svc.handle({"op": "admit", "demand": 1, "time": 2.0})["ok"]
        svc.journal.close()


class TestWireConstants:
    """The line decoder is strict JSON: ``NaN``/``Infinity`` tokens make
    a request ``bad request JSON``, so no response ever echoes one."""

    LINES = ['{"op": "stats", "id": NaN}',
             '{"op": "stats", "id": Infinity}',
             '{"op": "stats", "id": -Infinity}',
             '{"op": "admit", "demand": 1, "time": NaN}',
             '{"op": "feed", "events": [{"type": "tick", "time": Infinity}]}']

    def test_serve_lines_refuses_constants(self, tmp_path):
        tr = poisson_trace("line", events=30, seed=9, departure_prob=0.0)
        path = tmp_path / "j.log"
        svc = AdmissionService(tr, "greedy-threshold",
                               journal_path=str(path))
        assert svc.handle({"op": "admit", "demand": 0, "time": 1.0})["ok"]
        svc.journal.commit()
        journal_before = path.read_bytes()
        out: list[dict] = []
        serve_lines(svc, [line + "\n" for line in self.LINES]
                    + ['{"op": "stats", "id": 1.5}\n'], out.append)
        assert len(out) == len(self.LINES) + 1
        for resp in out[:-1]:
            resp = _strict_json(resp)
            assert resp["ok"] is False
            assert "bad request JSON" in resp["error"]
            assert "id" not in resp
        assert out[-1]["ok"] and out[-1]["id"] == 1.5
        svc.journal.commit()
        assert path.read_bytes() == journal_before
        assert svc.position == 1
        svc.journal.close()

    def test_decode_request(self):
        for line in self.LINES:
            with pytest.raises(ValueError, match="not valid JSON"):
                decode_request(line)
        assert decode_request('{"op": "stats", "id": 1e308}') == {
            "op": "stats", "id": 1e308}


#: Request fields the state machine draws: valid values mixed with
#: values the record spec must refuse.
_TIMES = st.one_of(st.floats(0.0, 100.0), st.integers(0, 100),
                   st.sampled_from(HOSTILE_TIMES + [None, [1.0]]))
_IDS = st.one_of(st.integers(0, 11),
                 st.sampled_from(HOSTILE_IDS + [None, 12, 2 ** 40]))


class ServiceMachine(RuleBasedStateMachine):
    """Valid and hostile requests interleaved with kill+resume and
    compaction.  A rejected request changes neither the journal bytes
    nor the session; a resumed service equals the live one."""

    trace = generate_trace("line", events=12, seed=4, departure_prob=0.5,
                           workload={"n_slots": 64})

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="svc-sm-")
        self.path = os.path.join(self.dir, "j.log")
        self.svc = None

    @initialize(fmt=st.sampled_from(JOURNAL_FORMATS),
                checkpoint_every=st.sampled_from([0, 3]))
    def start(self, fmt, checkpoint_every):
        self.svc = AdmissionService(self.trace, "dual-gated",
                                    journal_path=self.path, fmt=fmt,
                                    checkpoint_every=checkpoint_every)

    def teardown(self):
        if self.svc is not None and self.svc.journal is not None:
            self.svc.journal.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _state(self):
        return (self.svc.checkpoint_state(), self.svc.session.snapshot())

    def _journal(self):
        with open(self.path, "rb") as fh:
            return fh.read()

    def _send(self, req):
        journal_before = self._journal()
        state_before = self._state()
        resp = _strict_json(self.svc.handle(req))
        if not resp["ok"]:
            assert self._journal() == journal_before
            assert self._state() == state_before
        return resp

    @rule(demand=_IDS, time=_TIMES)
    def admit(self, demand, time):
        resp = self._send({"op": "admit", "demand": demand, "time": time})
        finite = type(time) in (int, float) and math.isfinite(time)
        if not (finite and type(demand) is int and demand >= 0):
            assert not resp["ok"]

    @rule(demand=_IDS, time=_TIMES)
    def release(self, demand, time):
        self._send({"op": "release", "demand": demand, "time": time})

    @rule(time=_TIMES)
    def tick(self, time):
        self._send({"op": "tick", "time": time})

    @rule(events=st.lists(st.fixed_dictionaries({
        "type": st.sampled_from(["arrival", "departure", "tick", "warp"]),
        "time": _TIMES, "demand": _IDS}), min_size=1, max_size=4))
    def feed(self, events):
        self._send({"op": "feed", "events": events})

    def _resume_and_compare(self):
        live = self._state()
        self.svc = AdmissionService.resume(self.path)
        assert self._state() == live

    @rule()
    def abandon_and_resume(self):
        self.svc.journal.abandon()
        self._resume_and_compare()

    @rule(fmt=st.sampled_from([None, *JOURNAL_FORMATS]))
    def compact_and_resume(self, fmt):
        self.svc.journal.close()
        AdmissionService.compact(self.path, fmt=fmt)
        self._resume_and_compare()

    @invariant()
    def journal_is_committed(self):
        if self.svc is not None:
            assert self.svc.journal.seq == self.svc.journal.commit_seq


ServiceMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestServiceMachine = ServiceMachine.TestCase


class TestShardedBackend:
    """Journals written while the service still had a sharded backend
    carry ``shards``/``shard_by`` in their header.  Resume ignores those
    keys: the global coordinator always decided, so the outcome equals
    an uninterrupted unsharded replay."""

    @pytest.fixture(scope="class")
    def tree_trace(self):
        return generate_trace("tree", events=250, seed=5,
                              departure_prob=0.3,
                              workload={"n": 120,
                                        "boundary_fraction": 0.1,
                                        "parts": 2})

    def test_sharded_warm_restart(self, tree_trace, tmp_path):
        full = replay(tree_trace, make_policy("greedy-threshold"))
        for fmt in ("jsonl", "binary"):
            path = str(tmp_path / f"old.{fmt}")
            svc = AdmissionService(tree_trace, "greedy-threshold")
            header = {**svc._header(), "checkpoint_every": 40,
                      "shards": 2, "shard_by": "subtree"}
            with JournalWriter(path, header, fmt=fmt) as jw:
                for k, ev in enumerate(tree_trace.events[:100], 1):
                    jw.append(ev)
                    svc.submit_event(ev)
                    if k == 40:
                        jw.checkpoint(svc.checkpoint_state())
            resumed = AdmissionService.resume(path)
            assert resumed.position == 100
            assert "shards" not in resumed._header()
            result = resumed.run_remaining()
            assert deterministic_metrics(result.metrics) == \
                deterministic_metrics(full.metrics), fmt
            assert result.admission_log == full.admission_log, fmt

"""One benchmark pass in a fresh process: input file on disk to result file.

Usage: ``python3 perfbench/worker.py JOB.json`` runs one pass, where the
job document names the pass (``replay``, ``solve`` or ``service``), its
input and output files, and whether to trace.  The pass makes the same
public calls as ``repro replay`` / ``repro solve`` / ``repro serve`` +
``repro resume``, and writes a report (timings, peak RSS, spans, counts)
to ``job["report"]``.

``python3 perfbench/worker.py --serve`` imports the program once, then
reads one job path per stdin line, forks a child per job and answers
each with the child's exit code on a stdout line.  Either way every
pass runs in a process of its own that has done nothing but import the
program, so every pass is a cold start with its own peak RSS; the fork
only saves re-importing between passes.

With ``"trace": true`` the calls into each layer are wrapped with spans
(see :mod:`spans`); without it only the pass boundaries are timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import SpanRecorder  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def route_counts(problem) -> tuple[int, int]:
    """``(instances, route edges)`` of a problem's expanded population."""
    insts = problem.instances()
    return len(insts), sum(len(problem.global_edges_of(d)) for d in insts)


def log_digest(admission_log, eviction_log) -> str:
    """SHA-256 over the admission and eviction logs, in order."""
    doc = json.dumps([[list(p) for p in admission_log],
                      [list(p) for p in eviction_log]])
    return hashlib.sha256(doc.encode()).hexdigest()


def _instrument_setup(rec: SpanRecorder) -> None:
    """Wrap the set-up layers shared by replay and service passes."""
    from repro.core.conflict import ConflictIndex
    from repro.core.instance import LineProblem, TreeProblem
    from repro.online.state import CapacityLedger
    from repro.session import AdmissionSession

    rec.wrap(TreeProblem, "instances", "core.routes")
    rec.wrap(LineProblem, "instances", "core.routes")
    rec.wrap(ConflictIndex, "__init__", "core.index_build")
    rec.wrap(CapacityLedger, "__init__", "online.ledger_init")
    rec.wrap(AdmissionSession, "__init__", "session.setup")


def run_replay(job: dict, rec: SpanRecorder | None) -> dict:
    from repro.io import load_trace
    from repro.online import make_policy
    from repro.online.state import CapacityLedger
    from repro.session import AdmissionSession

    plans = {"computed": 0, "useful": 0}
    if rec is not None:
        _instrument_setup(rec)

        def count_plan(victims) -> None:
            plans["computed"] += 1
            plans["useful"] += bool(victims)

        rec.wrap(CapacityLedger, "preemption_plan",
                 "online.preemption_plan", on_result=count_plan)
    span = rec.span if rec is not None else _untimed

    t0 = time.perf_counter()
    with span("bench.pass"):
        policy = make_policy(job["policy"], **job["policy_kwargs"])
        with span("io.trace_load"):
            trace = load_trace(job["input"])
        session = AdmissionSession(trace.problem, policy,
                                   trace_meta=trace.meta)
        t_setup = time.perf_counter()
        with span("online.decide"):
            session.feed_many(trace.events)
        with span("session.close"):
            result = session.close(verify=True)
        with span("io.result_write"):
            doc = result.metrics.to_dict()
            doc["policy_stats"] = result.policy_stats
            doc["trace_meta"] = result.trace_meta
            _write_json(doc, job["output"])
    t_end = time.perf_counter()
    if rec is not None:
        rec.restore()
    instances, edges = route_counts(trace.problem)
    _write_json({"admission_log": result.admission_log,
                 "eviction_log": result.eviction_log}, job["logs"])
    ref_digest = None
    if job.get("reference") == "scalar":
        # After the timed region: the same trace replayed without the
        # columnar fast path, which must decide exactly as it did.
        from repro.online import replay

        ref = replay(trace, make_policy(job["policy"], **job["policy_kwargs"]),
                     fastpath=False)
        ref_digest = log_digest(ref.admission_log, ref.eviction_log)
    m = result.metrics
    return {
        "setup_s": t_setup - t0,
        "wall_s": t_end - t0,
        "events": m.events,
        "latency_p50_us": m.latency_p50_us,
        "latency_p99_us": m.latency_p99_us,
        "digest": log_digest(result.admission_log, result.eviction_log),
        "ref_digest": ref_digest,
        "fastpath": dict(session.fastpath_stats),
        "preemption_plans": plans,
        "instances": instances,
        "route_edges": edges,
    }


def run_solve(job: dict, rec: SpanRecorder | None) -> dict:
    from repro.algorithms import registry
    from repro.core.conflict import ConflictIndex
    from repro.core.instance import TreeProblem
    from repro.core.solution import verify_tree_solution
    from repro.io import load_problem, save_solution

    if rec is not None:
        import repro.algorithms.compile as compile_mod
        import repro.algorithms.tree_unit as tree_unit_mod
        from repro.algorithms.framework import TwoPhaseEngine

        rec.wrap(TreeProblem, "instances", "core.routes")
        rec.wrap(ConflictIndex, "__init__", "core.index_build")
        rec.wrap(tree_unit_mod, "compile_tree", "algorithms.compile")
        rec.wrap(compile_mod, "tree_layers", "decomposition.layers")
        rec.wrap(TwoPhaseEngine, "run", "algorithms.engine")
    span = rec.span if rec is not None else _untimed

    t0 = time.perf_counter()
    with span("bench.pass"):
        with span("io.trace_load"):
            problem = load_problem(job["input"])
        problem.instances()
        t_setup = time.perf_counter()
        spec = registry.resolve(job["algorithm"], problem)
        sol = registry.solve(spec.name, problem, **job["params"])
        with span("core.verify"):
            verify_tree_solution(problem, sol, unit_height=False)
        with span("io.result_write"):
            save_solution(sol, job["output"])
    t_end = time.perf_counter()
    if rec is not None:
        rec.restore()
    instances, edges = route_counts(problem)
    return {
        "setup_s": t_setup - t0,
        "wall_s": t_end - t0,
        "events": problem.num_demands,
        "instances": instances,
        "route_edges": edges,
        "stats": {k: sol.stats.get(k) for k in
                  ("total_rounds", "mis_rounds", "opt_upper_bound")},
        "profit": sol.profit,
    }


def run_service(job: dict, rec: SpanRecorder | None) -> dict:
    """The server's layers in-process: build, handle every request line,
    lose the uncommitted window as a ``kill -9`` would, resume, finish."""
    import repro.service.service as service_mod
    from repro.io import JournalWriter, load_trace
    from repro.service import AdmissionService

    if rec is not None:
        _instrument_setup(rec)
        rec.wrap(AdmissionService, "__init__", "service.setup")
        rec.wrap(AdmissionService, "checkpoint", "service.checkpoint")
        rec.wrap(JournalWriter, "commit", "service.journal_commit")
        rec.wrap(service_mod, "scan_journal", "io.journal_scan")
    span = rec.span if rec is not None else _untimed

    with open(job["requests"], "rb") as fh:
        requests = [json.loads(line) for line in fh]
    handle_us: list[float] = []
    clock = time.perf_counter
    t0 = clock()
    with span("bench.pass"):
        with span("io.trace_load"):
            trace = load_trace(job["input"])
        svc = AdmissionService(trace, job["policy"], job["policy_kwargs"],
                               journal_path=job["journal"],
                               **job["service_kwargs"])
        for req in requests:
            with span("service.handle"):
                t = clock()
                resp = svc.handle(req)
                handle_us.append((clock() - t) * 1e6)
            if not resp.get("ok"):
                raise RuntimeError(f"in-process request failed: {resp}")
        svc.journal.abandon()
        with span("service.resume"):
            resumed = AdmissionService.resume(job["journal"])
        with span("service.run_remaining"):
            result = resumed.run_remaining()
    wall = clock() - t0
    if rec is not None:
        rec.restore()
    handle_us.sort()
    instances, edges = route_counts(trace.problem)
    return {
        "wall_s": wall,
        "instances": instances,
        "route_edges": edges,
        "handle_p50_us": _pct(handle_us, 50),
        "handle_p99_us": _pct(handle_us, 99),
        "resumed_metrics": result.metrics.to_dict(),
        "events": len(requests),
    }


def _pct(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    k = max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[k]


def _untimed(_name: str):
    """``span(name)`` stand-in when tracing is off: times nothing."""
    return contextlib.nullcontext()


def main(argv: list[str]) -> int:
    with open(argv[1]) as fh:
        job = json.load(fh)
    rec = SpanRecorder() if job.get("trace") else None
    run = {"replay": run_replay, "solve": run_solve,
           "service": run_service}[job["task"]]
    report = run(job, rec)
    report["peak_rss_mb"] = _peak_rss_mb()
    report["pid"] = os.getpid()
    if rec is not None:
        report["spans"] = rec.spans
    _write_json(report, job["report"])
    return 0


def serve_jobs() -> int:
    """Fork one pass per job path read from stdin (see the module doc).
    A child's stdout and stderr go to ``<job path>.stderr``."""
    import traceback

    # Every layer a pass imports, so that the forked children need not.
    import repro.algorithms.registry  # noqa: F401
    import repro.io  # noqa: F401
    import repro.online  # noqa: F401
    import repro.service  # noqa: F401
    import repro.session  # noqa: F401

    # Forking a process with threads is unsafe.  The pool is started
    # with OPENBLAS_NUM_THREADS=1, so importing numpy starts none.
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise RuntimeError(f"worker pool has {threads} threads; it may "
                           f"only fork with one")
    for line in sys.stdin:
        job_path = line.strip()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                with open(job_path + ".stderr", "w") as err:
                    os.dup2(err.fileno(), 1)  # stdout carries answers
                    os.dup2(err.fileno(), 2)
                code = main(["worker.py", job_path])
            except Exception:
                traceback.print_exc()
            finally:  # never return into the pool's loop
                sys.stderr.flush()
                os._exit(code)
        _pid, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve_jobs() if sys.argv[1:] == ["--serve"] else main(sys.argv))

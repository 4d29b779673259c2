"""The repository benchmark: cold start included, checked, layer by layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (parameters in ``spec.json``):

* ``replay-tree`` — ``repro replay``'s calls, dual-gated, on a tree trace;
* ``replay-line-preempt`` — the same with preempt-density on a line trace;
* ``serve-wire`` — a ``repro serve --async`` subprocess driven open loop
  over one TCP connection, then ``kill -9`` and ``repro resume``;
* ``solve-tree`` — ``repro solve``'s calls with the tree-unit solver.

The inputs are generated from ``--seed`` into a scratch directory under
``.perfbench/`` before any timing, so the program only ever receives
files.  Each pass runs in a process of its own, forked by a pool that
has imported the program (``worker.py --serve``), from input file to
result file.  Passes repeat until the run has lasted
``--seconds`` in all, input generation included (at least
``min_passes``).  ``wall_s`` and ``resume_s`` are the fastest of the
run's samples and ``setup_s`` their median (see ``"timing"`` in
``spec.json`` for why).  Every output is checked; failed checks and bad
responses count in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; it also
writes ``.perfbench/traces/<workload>-seed<N>.trace.json`` (Chrome
``trace_event``, opens in Perfetto) and a per-layer self-time table.
The last line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import loadgen  # noqa: E402
import spans as sp  # noqa: E402

#: When this process started; a run lasts ``--seconds`` from here.
START = time.perf_counter()

#: Longest a single child process may take before the run fails.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, bad args)."""


def load_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"repro imported from {repro.__file__}, "
                         f"not from {SRC}")
    return repro


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def median(xs):
    return statistics.median(xs) if xs else 0.0


def fastest(xs):
    return min(xs) if xs else 0.0


def pct(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of a sorted list (0.0 when empty)."""
    if not sorted_vals:
        return 0.0
    k = max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[k]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def make_trace(cfg: dict, seed: int, path: str):
    from repro.io import save_trace
    from repro.online import generate_trace

    t = cfg["trace"]
    trace = generate_trace(t["kind"], events=t["events"],
                           process=t["process"], seed=seed,
                           departure_prob=t["departure_prob"],
                           workload=dict(t["workload"]))
    save_trace(trace, path)
    return trace


def make_problem(cfg: dict, seed: int, path: str):
    from repro.io import save_problem
    from repro.workloads import random_tree_problem

    p = cfg["problem"]
    problem = random_tree_problem(n=p["n"], m=p["m"], r=p["r"], seed=seed)
    save_problem(problem, path)
    return problem


# ----------------------------------------------------------------------
# Worker passes
# ----------------------------------------------------------------------

class Passes:
    """Runs numbered worker passes, one at a time, with their files in
    the run's scratch directory.  The passes are forked by one
    ``worker.py --serve`` process (see ``worker.py``); :meth:`close`
    stops it."""

    def __init__(self, work: str):
        self.work = work
        self.n = 0
        self.pool: subprocess.Popen | None = None

    def _result(self, pool: subprocess.Popen) -> int:
        """The pool's answer line for the job just sent: the exit code."""
        sel = selectors.DefaultSelector()
        sel.register(pool.stdout, selectors.EVENT_READ)
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        buf = b""
        try:
            while not buf.endswith(b"\n"):
                left = deadline - time.perf_counter()
                if left <= 0 or not sel.select(left):
                    raise TimeoutError(f"worker pass ran over "
                                       f"{CHILD_TIMEOUT_S} s")
                chunk = os.read(pool.stdout.fileno(), 64)
                if not chunk:
                    raise RuntimeError("worker pool exited")
                buf += chunk
        finally:
            sel.close()
        return int(buf)

    def close(self) -> None:
        """Stop the pool and every pass it forked, and wait for them."""
        pool, self.pool = self.pool, None
        if pool is None:
            return
        pool.stdin.close()
        try:
            pool.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        # The pool leads its own process group: kill what is left of it
        # (a pass still running) and wait until the group is gone.
        for _ in range(500):
            try:
                os.killpg(pool.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            if pool.poll() is None:
                pool.wait()
            time.sleep(0.01)
        pool.stdout.close()

    def run(self, job: dict) -> dict | None:
        """One worker pass; returns its report, or ``None`` if it failed
        (the failure goes to stderr)."""
        self.n += 1
        tag = f"pass{self.n}"
        job = dict(job)
        for key in ("output", "logs", "report", "journal"):
            if key in job:
                job[key] = os.path.join(self.work, f"{tag}.{key}")
        job_path = os.path.join(self.work, f"{tag}.job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        if self.pool is None:
            # One BLAS thread keeps the pool single-threaded, so that it
            # may fork; no pass makes BLAS calls.
            env = dict(child_env(), OPENBLAS_NUM_THREADS="1")
            self.pool = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), "--serve"],
                cwd=ROOT, env=env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, start_new_session=True)
        self.pool.stdin.write(job_path.encode() + b"\n")
        self.pool.stdin.flush()
        if self._result(self.pool) != 0:
            with open(job_path + ".stderr") as fh:
                sys.stderr.write(fh.read()[-2000:])
            return None
        with open(job["report"]) as fh:
            report = json.load(fh)
        report["job"] = job
        return report


def pass_schedule(deadline: float, min_passes: int, traced: bool,
                  inputs: int = 1):
    """Yield ``(input index, trace flag)`` for successive passes while a
    pass of median length would end by ``deadline`` (a
    ``time.perf_counter`` value).  Inputs take turns; a traced run gives
    each input an untraced and a traced pass in a row."""
    durations: list[float] = []
    i = 0
    while True:
        need = max(min_passes, 2 * inputs) if traced else min_passes
        if i >= need and time.perf_counter() + median(durations) > deadline:
            return
        t = time.perf_counter()
        if traced:
            yield (i // 2) % inputs, i % 2 == 1
        else:
            yield i % inputs, False
        durations.append(time.perf_counter() - t)
        i += 1


# ----------------------------------------------------------------------
# Replay and solve
# ----------------------------------------------------------------------

def bench_replay(cfg: dict, seed: int, deadline: float, traced: bool,
                 work: str, passes: Passes) -> dict:
    # ``inputs`` traces per run, from seeds seed*K .. seed*K+K-1, replayed
    # in turn (see "timing" in spec.json).
    k_inputs = cfg["inputs"]
    jobs, facts = [], []
    for k in range(k_inputs):
        path = os.path.join(work, f"trace{k}.json")
        trace = make_trace(cfg, seed * k_inputs + k, path)
        facts.append(({d.demand_id: d.profit for d in trace.problem.demands},
                      len(trace.events)))
        jobs.append({"task": "replay", "input": path, "output": "",
                     "logs": "", "report": "", "policy": cfg["policy"],
                     "policy_kwargs": cfg["policy_kwargs"],
                     "input_index": k})
        del trace
    tally = checks.Tally()
    reports, traced_reports = [], []
    ref_digest: dict[int, str | None] = {}
    first_digest: dict[int, str] = {}
    for k, flag in pass_schedule(deadline, cfg["min_passes"], traced,
                                 k_inputs):
        profits, n_events = facts[k]
        # An input's first pass also replays it with the scalar loop,
        # after its timed region: the columnar fast path must decide
        # exactly as the scalar loop does.
        first = k not in first_digest
        rep = passes.run(dict(jobs[k], trace=flag,
                              reference=cfg["reference"] if first else None))
        if rep is None:
            tally.fail_pass(n_events, "worker pass failed")
            continue
        if first and cfg["reference"] is not None:
            ref_digest[k] = rep["ref_digest"]
            if ref_digest[k] is None:
                tally.fail_pass(0, "no reference replay")
        with open(rep["job"]["output"]) as fh:
            doc = json.load(fh)
        with open(rep["job"]["logs"]) as fh:
            logs = json.load(fh)
        tally.add(n_events, checks.check_replay(
            doc, logs, rep["digest"], profits, n_events,
            ref_digest=ref_digest.get(k), first_digest=first_digest.get(k),
            dual_bound=cfg["reference"] == "scalar"))
        first_digest.setdefault(k, rep["digest"])
        (traced_reports if flag else reports).append(rep)
        rep["profit"] = doc["realized_profit"]
        rep["metrics"] = doc
    return summarize(cfg, reports, traced_reports, tally)


def bench_solve(cfg: dict, seed: int, deadline: float, traced: bool,
                work: str, passes: Passes) -> dict:
    # ``inputs`` problems per run, from seeds seed*K .. seed*K+K-1, solved
    # in turn (see "timing" in spec.json).
    k_inputs = cfg["inputs"]
    problems, jobs = [], []
    for k in range(k_inputs):
        path = os.path.join(work, f"problem{k}.json")
        problems.append(make_problem(cfg, seed * k_inputs + k, path))
        jobs.append({"task": "solve", "input": path, "output": "",
                     "report": "", "algorithm": cfg["algorithm"],
                     "params": cfg["params"], "input_index": k})
    tally = checks.Tally()
    reports, traced_reports = [], []
    first_profit: dict[int, float] = {}
    for k, flag in pass_schedule(deadline, cfg["min_passes"], traced,
                                 k_inputs):
        problem = problems[k]
        rep = passes.run(dict(jobs[k], trace=flag))
        if rep is None:
            tally.fail_pass(problem.num_demands, "worker pass failed")
            continue
        with open(rep["job"]["output"]) as fh:
            doc = json.load(fh)
        tally.add(problem.num_demands, checks.check_solution(
            problem, doc, first_profit=first_profit.get(k)))
        first_profit.setdefault(k, rep["profit"])
        (traced_reports if flag else reports).append(rep)
    return summarize(cfg, reports, traced_reports, tally)


def summarize(cfg: dict, reports: list, traced_reports: list,
              tally: "checks.Tally") -> dict:
    """End-to-end and per-layer values from worker reports.

    A timing is the fastest (``wall_s``) or the median (``setup_s``) of
    one input's passes, averaged over the run's inputs (a single input
    when the workload has one).
    """
    by_input: dict[int, list] = {}
    for r in reports:
        by_input.setdefault(r["job"].get("input_index", 0), []).append(r)
    groups = list(by_input.values())

    def per_input(key: str, stat) -> float:
        return statistics.fmean([stat([r[key] for r in g])
                                 for g in groups]) if groups else 0.0

    walls = [r["wall_s"] for r in reports]
    print("pass walls (s): " + " ".join(f"{x:.3f}" for x in walls)
          + "; set-ups (s): " + " ".join(f"{r['setup_s']:.3f}"
                                         for r in reports), file=sys.stderr)
    events = reports[0]["events"] if reports else 0
    wall = per_input("wall_s", fastest)
    setup = per_input("setup_s", median)
    if cfg["task"] == "solve":
        lat50, lat99 = median(walls) * 1e6, max(walls, default=0.0) * 1e6
    else:
        lat50 = median([r["latency_p50_us"] for r in reports])
        lat99 = median([r["latency_p99_us"] for r in reports])
    e2e = {
        "setup_s": setup,
        "wall_s": wall,
        "events_per_s": events / wall if wall else 0.0,
        "profit": statistics.fmean([g[0]["profit"] for g in groups])
        if groups else 0.0,
        "latency_p50_us": lat50,
        "latency_p99_us": lat99,
        "sustainable_rate": median([r["events"] / (r["wall_s"] - r["setup_s"])
                                    for r in reports]),
        "resume_s": wall,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
    }
    return {"e2e": e2e, "layers": layer_metrics(cfg, reports,
                                                traced_reports),
            "tally": tally,
            "traces": [{"pid": r["pid"], "label": cfg["task"],
                        "spans": r["spans"]} for r in traced_reports]}


def layer_metrics(cfg: dict, reports: list, traced: list) -> dict:
    """Per-layer metrics: timings are medians over the traced passes;
    work counts, which a seed fixes, come from each input's first pass
    (traced or not) and are averaged over the inputs, so they repeat
    exactly however many passes a run fits."""
    out: dict[str, float] = {}
    firsts: dict[int, dict] = {}
    for r in reports + traced:
        firsts.setdefault(r["job"].get("input_index", 0), r)

    def put(name: str, fn) -> None:
        out[name] = median([fn(r) for r in traced]) if traced else 0.0

    def count(name: str, fn) -> None:
        out[name] = statistics.fmean([fn(r) for r in firsts.values()]) \
            if firsts else 0.0

    put("io.trace_load_s", lambda r: sp.total_s(r["spans"], "io.trace_load"))
    put("core.routes_s", lambda r: sp.total_s(r["spans"], "core.routes"))
    put("core.index_build_s",
        lambda r: sp.total_s(r["spans"], "core.index_build"))
    count("core.instances", lambda r: r["instances"])
    count("core.route_edges", lambda r: r["route_edges"])
    if cfg["task"] == "replay":
        put("online.ledger_init_s",
            lambda r: sp.self_s(r["spans"], "online.ledger_init"))
        put("online.decide_s",
            lambda r: sp.total_s(r["spans"], "online.decide"))
        put("online.decide_events_per_s",
            lambda r: r["events"] / sp.total_s(r["spans"], "online.decide"))
        count("online.fastpath_batched_share",
              lambda r: r["fastpath"]["batched_events"] / r["events"])
        count("online.fastpath_runs", lambda r: r["fastpath"]["runs"])
        count("online.fastpath_scalar_fallbacks",
              lambda r: r["fastpath"]["scalar_fallbacks"])
        put("online.preemption_plan_s",
            lambda r: sp.total_s(r["spans"], "online.preemption_plan"))
        put("online.preemption_plans",
            lambda r: r["preemption_plans"]["computed"])
        put("online.preemption_useful_share",
            lambda r: (r["preemption_plans"]["useful"]
                       / r["preemption_plans"]["computed"])
            if r["preemption_plans"]["computed"] else 0.0)
        count("online.evictions", lambda r: r["metrics"]["evictions"])
        count("online.acceptance_ratio",
              lambda r: r["metrics"]["acceptance_ratio"])
        put("session.setup_s", lambda r: sp.self_s(r["spans"],
                                                   "session.setup"))
        put("session.close_s",
            lambda r: sp.total_s(r["spans"], "session.close"))
        put("session.decision_p50_us", lambda r: r["latency_p50_us"])
        put("session.decision_p99_us", lambda r: r["latency_p99_us"])
    if cfg["task"] == "solve":
        put("algorithms.compile_s",
            lambda r: sp.total_s(r["spans"], "algorithms.compile"))
        put("algorithms.engine_s",
            lambda r: sp.total_s(r["spans"], "algorithms.engine"))
        put("decomposition.layers_s",
            lambda r: sp.total_s(r["spans"], "decomposition.layers"))
        count("distributed.total_rounds", lambda r: r["stats"]["total_rounds"])
        count("distributed.mis_rounds", lambda r: r["stats"]["mis_rounds"])
        count("algorithms.opt_bound_ratio",
              lambda r: r["stats"]["opt_upper_bound"] / r["profit"])
    out.update(tracing_overhead(traced, reports))
    return out


def tracing_overhead(traced: list, untraced: list) -> dict:
    """Fastest traced minus fastest untraced wall of one input's passes,
    averaged over the inputs that have both."""
    walls: dict[int, tuple[list, list]] = {}
    for flag, reps in ((0, untraced), (1, traced)):
        for r in reps:
            k = r["job"].get("input_index", 0)
            walls.setdefault(k, ([], []))[flag].append(r["wall_s"])
    diffs = [fastest(t) - fastest(u) for u, t in walls.values() if u and t]
    return {"bench.tracing_overhead_s": statistics.fmean(diffs)} \
        if diffs else {}


# ----------------------------------------------------------------------
# Serving over the wire
# ----------------------------------------------------------------------

def _read_listening(proc, deadline: float) -> tuple[str, int]:
    """Read the server's stderr until its ``listening on`` line."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stderr, selectors.EVENT_READ)
    buf = b""
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError("server did not start listening")
            if not sel.select(left):
                continue
            chunk = os.read(proc.stderr.fileno(), 4096)
            if not chunk:
                raise RuntimeError("server exited before listening: "
                                   + buf.decode(errors="replace")[-500:])
            buf += chunk
            for line in buf.decode(errors="replace").splitlines():
                if line.startswith("listening on "):
                    host, port = line.split()[2].rsplit(":", 1)
                    return host, int(port)
    finally:
        sel.close()


class Server:
    """One ``repro serve`` subprocess; always killed on exit."""

    def __init__(self, args: list[str]):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args], cwd=ROOT,
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            self.addr = _read_listening(self.proc,
                                        self.t0 + CHILD_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - self.t0

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stderr.close()


def serve_flags(cfg: dict) -> list[str]:
    """``repro serve`` flags for the workload's journal settings (the
    in-process service pass gets the same settings as keywords)."""
    kw = cfg["service_kwargs"]
    return ["--async", "--port", "0", "--format", kw["fmt"],
            "--sync-window", str(kw["sync_window"]),
            "--checkpoint-every", str(kw["checkpoint_every"])]


def request_lines(trace) -> list[bytes]:
    from repro.io import event_to_dict

    return [(json.dumps({"op": "submit", "event": event_to_dict(ev),
                         "id": i}) + "\n").encode()
            for i, ev in enumerate(trace.events)]


def reference_service(cfg: dict, trace):
    """In-process decisions per event plus the final metrics, from an
    :class:`AdmissionSession` fed the whole trace one submit at a time."""
    from repro.online import make_policy
    from repro.session import AdmissionSession

    session = AdmissionSession(
        trace.problem, make_policy(cfg["policy"], **cfg["policy_kwargs"]),
        trace_meta=trace.meta)
    decisions = []
    for ev in trace.events:
        d = session.submit(ev)
        decisions.append(([list(p) for p in d.admitted],
                          [list(p) for p in d.evicted]))
    return decisions, session.close(verify=True)


def windowed_p99(latencies_us: list[float], window: int) -> float:
    """p99 of each run of ``window`` consecutive requests, median over
    the runs.  A window of 2000 leaves 20 samples beyond each p99; the
    median keeps one host-wide stall from deciding the figure."""
    per = [pct(sorted(latencies_us[k:k + window]), 99)
           for k in range(0, len(latencies_us) - window + 1, window)]
    return median(per)


def ramp_steps(res: dict, steps: list, limit_us: float) -> list[dict]:
    """Per-step latency, lag and backlog figures from a ramp run."""
    due, sent, recv = res["due"], res["sent"], res["recv"]
    out = []
    i0 = 0
    for rate, count in steps:
        idx = range(i0, i0 + count)
        lat = sorted((recv[i] - due[i]) * 1e6 for i in idx)
        lag = sorted((sent[i] - due[i]) * 1e6 for i in idx)
        last_due = due[i0 + count - 1]
        # Outstanding when the step's last request is due: sent so far
        # minus replies received by then.
        outstanding = sum(1 for i in range(i0 + count) if recv[i] > last_due)
        backlog_max = 0
        j = 0
        got = sorted(recv[:i0 + count])
        for k in idx:
            while j < len(got) and got[j] <= due[k]:
                j += 1
            backlog_max = max(backlog_max, (k + 1) - j)
        p99 = pct(lat, 99)
        ok = (p99 <= limit_us
              and outstanding <= 1 + rate * limit_us / 1e6)
        span_s = max(recv[i] for i in idx) - due[i0]
        out.append({"rate": rate, "count": count, "p50_us": pct(lat, 50),
                    "p99_us": p99, "lag_p99_us": pct(lag, 99),
                    "outstanding_at_end": outstanding,
                    "backlog_max": backlog_max, "sustained": ok,
                    "achieved_rate": count / span_s if span_s > 0 else 0.0})
        i0 += count
    return out


def bench_serve(cfg: dict, seed: int, deadline: float, traced: bool,
                work: str, passes: Passes) -> dict:
    trace_path = os.path.join(work, "trace.json")
    trace = make_trace(cfg, seed, trace_path)
    lines = request_lines(trace)
    req_path = os.path.join(work, "requests.jsonl")
    with open(req_path, "wb") as fh:
        fh.writelines(lines)
    ramp = cfg["ramp"]
    steps = [tuple(s) for s in ramp["steps"]]
    if sum(c for _r, c in steps) != len(lines):
        raise BenchError("ramp steps must cover the trace exactly once")
    due = loadgen.schedule(steps)
    limit = ramp["p99_limit_us"]
    nominal = [i for i, (r, _c) in enumerate(steps)
               if r == ramp["nominal_rate"]][0]
    ref_decisions, ref_result = reference_service(cfg, trace)
    del trace
    # A traced run leaves its second half to the in-process layer passes.
    wire_deadline = deadline - (traced * (deadline - time.perf_counter()) / 2)

    tally = checks.Tally()
    setups: list[float] = []
    resumes: list[float] = []
    wall = rate = peak_rss = 0.0
    journal_size = 0
    nominal_lat: list[float] = []
    figures: list[dict] = []
    final_profit = None

    def check_resumed(path: str | None) -> None:
        nonlocal final_profit
        doc = None
        if path is not None:
            with open(path) as fh:
                doc = json.load(fh)
        tally.add(0, checks.check_metrics_equal(doc, ref_result.metrics))
        if doc is not None:
            final_profit = doc["realized_profit"]

    def resume_sample(journal: str) -> None:
        out = journal + ".out.json"
        t = time.perf_counter()
        ok = resume_cli(journal, out)
        resumes.append(time.perf_counter() - t)
        check_resumed(out if ok else None)

    def start_server(journal: str) -> Server:
        srv = Server(["--trace", trace_path, "--policy", cfg["policy"],
                      "--journal", journal, *serve_flags(cfg)])
        setups.append(srv.setup_s)
        return srv

    # One full pass (launch, ramp, kill -9, resume), then extra set-up
    # and resume samples while time allows: the ramp's length is fixed,
    # so the spare time buys more of the samples that vary.  A copy of
    # the journal, made before it is resumed, feeds the extra resumes.
    pristine = os.path.join(work, "pristine.journal")
    journal = os.path.join(work, "serve.journal")
    srv = start_server(journal)
    res = None
    try:
        res = loadgen.run_open_loop(srv.addr[0], srv.addr[1], lines, due,
                                    timeout_s=CHILD_TIMEOUT_S)
        peak_rss = srv.peak_rss_mb()
    except (OSError, TimeoutError) as exc:
        tally.fail_pass(len(lines), f"wire run failed: {exc}")
    finally:
        srv.kill()
    if res is not None:
        shutil.copyfile(journal, pristine)
        journal_size = os.path.getsize(journal)
        resume_sample(journal)
        wall = time.perf_counter() - srv.t0
        tally.add(len(lines), checks.check_responses(res["replies"],
                                                     ref_decisions))
        figures = ramp_steps(res, steps, limit)
        i0 = sum(c for _r, c in steps[:nominal])
        nominal_lat = [(res["recv"][i] - res["due"][i]) * 1e6
                       for i in range(i0, i0 + steps[nominal][1])]
        for f in figures:
            print(f"ramp {f['rate']:>6}/s: p50 {f['p50_us']:.0f} us, "
                  f"p99 {f['p99_us']:.0f} us, outstanding at end "
                  f"{f['outstanding_at_end']}, sustained {f['sustained']}",
                  file=sys.stderr)
        passing = [f for f in figures if f["sustained"]]
        rate = (max((f["rate"], f["achieved_rate"]) for f in passing)[1]
                if passing else 0.0)
    # Extra set-up samples stop at ``setup_samples`` (set-up time is
    # bounded only by its median); the rest of the run goes to resumes.
    extra = 0
    while os.path.exists(pristine) and (
            len(setups) < cfg["setup_samples"]
            or len(resumes) < cfg["resume_samples"]
            or time.perf_counter() + max(resumes) <= wire_deadline):
        extra += 1
        journal = os.path.join(work, f"extra{extra}.journal")
        if len(setups) < cfg["setup_samples"]:
            start_server(journal).kill()
            os.unlink(journal)
        shutil.copyfile(pristine, journal)
        resume_sample(journal)

    print("set-up samples (s): " + " ".join(f"{x:.3f}" for x in setups)
          + "; resume samples (s): " + " ".join(f"{x:.3f}" for x in resumes),
          file=sys.stderr)
    e2e = {
        "setup_s": median(setups),
        "wall_s": wall,
        "events_per_s": len(lines) / wall if wall else 0.0,
        "profit": final_profit if final_profit is not None else 0.0,
        "latency_p50_us": pct(sorted(nominal_lat), 50),
        "latency_p99_us": windowed_p99(nominal_lat, ramp["p99_window"]),
        "sustainable_rate": rate,
        "resume_s": fastest(resumes),
        "peak_rss_mb": peak_rss,
    }
    layers: dict[str, float] = {}
    traces = []
    if traced:
        layers, traces = serve_layers(cfg, trace_path, req_path, passes,
                                      deadline, tally, ref_result)
        layers["io.journal_bytes_per_event"] = journal_size / len(lines)
        layers["service.wire_p50_us"] = (e2e["latency_p50_us"]
                                         - layers["service.handle_p50_us"])
        layers["service.backlog_max"] = max(
            (f["backlog_max"] for f in figures), default=0)
        layers["bench.generator_lag_p99_us"] = median(
            [f["lag_p99_us"] for f in figures])
    return {"e2e": e2e, "layers": layers, "tally": tally,
            "traces": traces, "ramp": figures}


def resume_cli(journal: str, out: str) -> bool:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "resume", "--journal", journal,
         "-o", out], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    return proc.returncode == 0


def serve_layers(cfg, trace_path, req_path, passes, deadline, tally,
                 ref_result):
    """The server's layers timed in-process over the same request lines
    (an untraced pass first, for the tracing overhead)."""
    job = {"task": "service", "input": trace_path, "requests": req_path,
           "journal": "", "report": "", "policy": cfg["policy"],
           "policy_kwargs": cfg["policy_kwargs"],
           "service_kwargs": cfg["service_kwargs"]}
    reports, traced = [], []
    for _k, flag in pass_schedule(deadline, 1, True):
        rep = passes.run(dict(job, trace=flag))
        if rep is None:
            tally.fail_pass(0, "in-process service pass failed")
            continue
        tally.add(0, checks.check_metrics_equal(rep["resumed_metrics"],
                                                ref_result.metrics))
        (traced if flag else reports).append(rep)
    out: dict[str, float] = {}

    def put(name, fn):
        out[name] = median([fn(r) for r in traced]) if traced else 0.0

    put("io.trace_load_s", lambda r: sp.first_s(r["spans"], "io.trace_load"))
    put("io.journal_scan_s", lambda r: sp.total_s(r["spans"],
                                                  "io.journal_scan"))
    put("core.routes_s", lambda r: sp.first_s(r["spans"], "core.routes"))
    put("core.index_build_s",
        lambda r: sp.first_s(r["spans"], "core.index_build"))
    put("online.ledger_init_s",
        lambda r: sp.first_s(r["spans"], "online.ledger_init",
                             self_time=True))
    put("core.instances", lambda r: r["instances"])
    put("core.route_edges", lambda r: r["route_edges"])
    put("service.setup_s", lambda r: sp.first_s(r["spans"], "service.setup"))
    put("service.handle_p50_us", lambda r: r["handle_p50_us"])
    put("service.handle_p99_us", lambda r: r["handle_p99_us"])
    put("service.journal_commit_s",
        lambda r: sp.total_s(r["spans"], "service.journal_commit"))
    put("service.journal_commits",
        lambda r: sp.count(r["spans"], "service.journal_commit"))
    put("service.checkpoint_s",
        lambda r: sp.total_s(r["spans"], "service.checkpoint"))
    put("service.checkpoints",
        lambda r: sp.count(r["spans"], "service.checkpoint"))
    put("service.resume_s", lambda r: sp.total_s(r["spans"],
                                                 "service.resume"))
    out.update(tracing_overhead(traced, reports))
    return out, [{"pid": r["pid"], "label": "service (in-process)",
                  "spans": r["spans"]} for r in traced]


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def write_trace_artifacts(name: str, seed: int, result: dict) -> None:
    """Chrome trace plus the self-time-by-layer table of a traced run."""
    out_dir = os.path.join(WORK, "traces")
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{name}-seed{seed}")
    with open(base + ".trace.json", "w") as fh:
        json.dump(sp.chrome_trace(result["traces"]), fh)
    rows: dict[str, list[float]] = {}
    for t in result["traces"]:
        for layer, s in sp.layer_table(t["spans"]).items():
            rows.setdefault(layer, []).append(s)
    n = max(len(result["traces"]), 1)
    table = {layer: sum(v) / n for layer, v in rows.items()}
    total = sum(table.values())
    lines = [f"self time by layer, {name} seed {seed} "
             f"(mean over {n} traced pass(es))",
             f"{'layer':<16}{'self_s':>10}{'share':>9}"]
    for layer, s in sorted(table.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<16}{s:>10.4f}{s / total:>9.1%}")
    text = "\n".join(lines) + "\n"
    with open(base + ".layers.txt", "w") as fh:
        fh.write(text)
    if "ramp" in result:
        with open(base + ".ramp.json", "w") as fh:
            json.dump(result["ramp"], fh, indent=1)
    print(text, end="")
    print(f"trace written to {os.path.relpath(base, ROOT)}.trace.json")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_program()
        bench = load_benchmark()
        with open(os.path.join(HERE, "spec.json")) as fh:
            spec = json.load(fh)
    except (BenchError, OSError, ValueError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cfg = spec["workloads"].get(args.workload)
    if cfg is None:
        print(f"perfbench: unknown workload {args.workload!r}; want one "
              f"of {', '.join(spec['workloads'])}", file=sys.stderr)
        return 2
    runner = {"replay": bench_replay, "solve": bench_solve,
              "serve": bench_serve}[cfg["task"]]
    deadline = START + args.seconds
    # A SIGTERM unwinds like an exception, so every child is killed and
    # reaped and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    passes = Passes(work)
    try:
        result = runner(cfg, args.seed, deadline, bool(args.trace),
                        work, passes)
    finally:
        passes.close()
        shutil.rmtree(work, ignore_errors=True)
    tally = result["tally"]
    if args.trace:
        write_trace_artifacts(args.workload, args.seed, result)
        values = dict(result["e2e"])
        values.update(result["layers"])
        values["bench.error_rate"] = tally.failed / max(tally.attempted, 1)
        section = bench["per_layer"]
    else:
        values = result["e2e"]
        section = bench["end_to_end"]
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in section}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

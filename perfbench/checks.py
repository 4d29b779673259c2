"""Output checks for every benchmark pass.

Each ``check_*`` function returns a list of problems (empty when the
output is right), so a run can count them as failed operations and go
on.  The checks recompute what they can from first principles instead
of trusting the numbers the program printed:

* replay — realized profit from the admission/eviction logs, the logs'
  digest against the program's own and a reference, and (for a policy
  with a dual certificate) ``profit <= dual_upper_bound``;
* solve — feasibility via ``verify_tree_solution``, profit recomputed
  from the selected instances, and ``profit <= opt_upper_bound``;
* serve — every response ``ok`` with the reference's admitted/evicted
  pairs, and the resumed final metrics equal to an in-process replay.
"""

from __future__ import annotations

import math

#: Relative tolerance for profits summed in a different order.
PROFIT_RTOL = 1e-9


class Tally:
    """Attempted and failed operation counts plus the problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, operations: int, problems: list[str]) -> None:
        """``operations`` pass outputs plus one operation per check run;
        each problem is one failed operation."""
        self.attempted += operations + 1
        self.failed += len(problems)
        self.problems.extend(problems)

    def fail_pass(self, operations: int, why: str) -> None:
        """A pass that produced no output: all its operations failed."""
        self.attempted += operations + 1
        self.failed += operations + 1
        self.problems.append(why)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=PROFIT_RTOL, abs_tol=1e-9)


def realized_profit(admission_log, eviction_log, profits: dict) -> float:
    """Admitted profit minus evicted (forfeited) profit."""
    gained = math.fsum(profits[d] for d, _i in admission_log)
    lost = math.fsum(profits[d] for d, _i in eviction_log)
    return gained - lost


def check_replay(doc: dict, logs: dict, digest: str, profits: dict,
                 n_events: int, *, ref_digest: str | None = None,
                 first_digest: str | None = None,
                 dual_bound: bool = False) -> list[str]:
    """Check one replay's metrics JSON against its logs and references.

    ``digest`` is the digest the worker computed over ``logs``;
    ``ref_digest`` the reference replay's and ``first_digest`` the first
    pass's of the same run (decisions are deterministic).
    """
    from worker import log_digest

    out = []
    adm, ev = logs["admission_log"], logs["eviction_log"]
    if log_digest(adm, ev) != digest:
        out.append("replay logs do not match their digest")
    for want, what in ((ref_digest, "reference replay"),
                       (first_digest, "first pass")):
        if want is not None and digest != want:
            out.append(f"replay decisions differ from the {what}")
    profit = doc.get("realized_profit")
    if not isinstance(profit, (int, float)) or not _close(
            profit, realized_profit(adm, ev, profits)):
        out.append(f"realized_profit {profit!r} does not match the logs")
    if doc.get("events") != n_events:
        out.append(f"replay saw {doc.get('events')} events, "
                   f"trace has {n_events}")
    if doc.get("accepted") != len(adm) or doc.get("evictions") != len(ev):
        out.append("accepted/evictions counts do not match the logs")
    if dual_bound:
        bound = doc.get("dual_upper_bound")
        if bound is None or not profit <= bound * (1 + PROFIT_RTOL):
            out.append(f"profit {profit} exceeds dual bound {bound}")
    return out


def check_solution(problem, doc: dict, *,
                   first_profit: float | None = None) -> list[str]:
    """Re-verify a saved tree solution from first principles."""
    from repro.core.solution import verify_tree_solution
    from repro.io import solution_from_dict

    try:
        sol = solution_from_dict(doc, problem)
        verify_tree_solution(problem, sol, unit_height=False)
    except (KeyError, ValueError, TypeError, AssertionError) as exc:
        return [f"solution is not feasible: {exc}"]
    out = []
    profit = math.fsum(d.profit for d in sol.selected)
    if not _close(doc.get("profit", math.nan), profit):
        out.append(f"solution profit {doc.get('profit')!r} != "
                   f"{profit} of its selected instances")
    bound = doc.get("stats", {}).get("opt_upper_bound")
    if bound is None or not profit <= bound * (1 + PROFIT_RTOL):
        out.append(f"profit {profit} exceeds opt_upper_bound {bound}")
    if first_profit is not None and not _close(profit, first_profit):
        out.append(f"solution profit {profit} differs from the first "
                   f"pass's {first_profit}")
    return out


def check_responses(replies: list[bytes], ref_decisions: list) -> list[str]:
    """One problem per response that is missing, not ``ok``, out of
    order, or disagrees with the reference decision."""
    import json

    out = []
    for i, want in enumerate(ref_decisions):
        if i >= len(replies):
            out.append(f"request {i}: no response")
            continue
        try:
            resp = json.loads(replies[i])
        except ValueError:
            out.append(f"request {i}: response is not JSON")
            continue
        dec = resp.get("decision") or {}
        if not resp.get("ok") or resp.get("id") != i:
            out.append(f"request {i}: bad response {resp!r:.200}")
        elif (dec.get("admitted"), dec.get("evicted")) != want:
            out.append(f"request {i}: decision {dec.get('admitted')}/"
                       f"{dec.get('evicted')} != reference {want}")
    return out


def check_metrics_equal(doc: dict | None, ref_metrics) -> list[str]:
    """The deterministic fields of ``doc`` equal the reference's."""
    from repro.online.metrics import deterministic_metrics

    if doc is None:
        return ["no final metrics"]
    want = deterministic_metrics(ref_metrics)
    diff = [k for k, v in want.items() if doc.get(k) != v]
    return [f"final metrics differ from the in-process replay in {diff}"] \
        if diff else []


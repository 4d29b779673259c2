"""Fork safety: worker functions must not mutate module-level state.

The sharded driver fans work out over ``multiprocessing`` fork
workers.  A forked child inherits module globals copy-on-write, so a
worker that *mutates* one is writing to a private copy the parent
never sees — code that "works" inline (``processes <= 1``) and
silently drops state when forked.  The inline/forked byte-identity
property the sharded driver guarantees makes this a correctness
contract, not a style preference.

The rule finds worker functions statically — any function passed as a
``Process(target=...)`` keyword or as the callable of ``pool.map`` /
``imap`` / ``apply_async``, plus any module-level function whose name
ends in ``_worker`` — and flags ``global`` declarations and mutations
(subscript/attribute writes, mutating method calls) of names bound to
mutable containers at module level.
"""

from __future__ import annotations

import ast

from ..base import Fixture, ParsedFile, Rule, register
from ..findings import Finding

__all__ = ["ForkSafetyRule"]

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "deque",
                  "OrderedDict", "Counter", "bytearray"}
_MUTATING_METHODS = {"append", "extend", "update", "add", "pop", "popitem",
                     "setdefault", "clear", "remove", "discard", "insert",
                     "appendleft", "sort"}
_POOL_METHODS = {"map", "imap", "imap_unordered", "apply", "apply_async",
                 "map_async", "starmap"}


def _module_mutables(tree: ast.Module):
    """Module-level names bound to mutable containers."""
    names = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                     ast.ListComp, ast.DictComp,
                                     ast.SetComp))
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_CALLS):
            mutable = True
        if not mutable:
            continue
        for t in targets:
            if isinstance(t, ast.Name) and t.id != "__all__":
                names.add(t.id)
    return names


def _worker_names(tree: ast.Module):
    """Functions handed to Process(target=...) / pool.map / *_worker."""
    workers = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and \
                node.name.endswith("_worker"):
            workers.add(node.name)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if attr == "Process":
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    workers.add(kw.value.id)
        elif attr in _POOL_METHODS and node.args and \
                isinstance(node.args[0], ast.Name):
            workers.add(node.args[0].id)
    return workers


@register
class ForkSafetyRule(Rule):
    id = "FORK001"
    name = "fork-unsafe-module-state"
    rationale = (
        "Fork workers inherit module globals copy-on-write: a worker "
        "mutating one writes to a private copy the parent never sees, "
        "so the code behaves differently inline versus forked — and "
        "the sharded driver's inline/forked byte-identity guarantee "
        "breaks.  Workers communicate through their arguments and the "
        "result queue, never through module state."
    )
    scope = "file"
    default_path = "sharding/driver.py"
    fixtures = [
        Fixture(
            bad=(
                "_RESULTS = {}\n"
                "def _shard_worker(s, events, queue):\n"
                "    _RESULTS[s] = len(events)\n"
                "    queue.put((s, len(events)))\n"
            ),
            good=(
                "def _shard_worker(s, events, queue):\n"
                "    queue.put((s, len(events)))\n"
            ),
            note="the parent's _RESULTS never sees the child's write; "
                 "everything crosses the queue",
        ),
        Fixture(
            bad=(
                "_SEEN = []\n"
                "def _shard_worker(s, events, queue):\n"
                "    global _SEEN\n"
                "    _SEEN = list(events)\n"
                "    queue.put(s)\n"
            ),
            good=(
                "def _shard_worker(s, events, queue):\n"
                "    seen = list(events)\n"
                "    queue.put((s, seen))\n"
            ),
            note="global rebinding in a forked child is equally invisible "
                 "to the parent",
        ),
    ]

    def check_file(self, parsed: ParsedFile):
        path = str(parsed.path)
        if not path.endswith("driver.py"):
            return
        mutables = _module_mutables(parsed.tree)
        workers = _worker_names(parsed.tree)
        if not workers:
            return
        for fn in parsed.tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in workers:
                continue
            local = {a.arg for a in (fn.args.posonlyargs + fn.args.args
                                     + fn.args.kwonlyargs)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    yield Finding(
                        path=path, line=node.lineno, col=node.col_offset,
                        rule=self.id,
                        message=(f"worker {fn.name} declares global "
                                 f"{', '.join(node.names)}; a forked "
                                 "child's rebinding never reaches the "
                                 "parent"),
                    )
                    continue
                target = None
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for t in targets:
                        if isinstance(t, ast.Subscript) and \
                                isinstance(t.value, ast.Name):
                            target = t.value.id
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _MUTATING_METHODS
                      and isinstance(node.func.value, ast.Name)):
                    target = node.func.value.id
                if target is not None and target in mutables \
                        and target not in local:
                    yield Finding(
                        path=path, line=node.lineno, col=node.col_offset,
                        rule=self.id,
                        message=(f"worker {fn.name} mutates module-level "
                                 f"{target!r}; forked children write a "
                                 "private copy-on-write page the parent "
                                 "never sees"),
                    )

"""Spans around the program's layer boundaries, and the per-layer metrics.

A traced run replaces functions at the module attribute their caller
looks up (``tropkex.attack.chain_compare`` is the name ``attack`` calls,
``tropkex.semidirect.op_circ`` the one ``semidirect`` dispatches to) with
a wrapper that records a span: name, start, end, parent span, operation
id, and whether the call returned.  Spans stay in memory until the run
ends.  Nothing is patched outside a traced run, and ``uninstall``
restores every original.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute the caller looks up, span name).  Several targets may
# share a span name when two callers import the same function.
TARGETS = (
    ("tropkex.cli", "cli_main", "cli.cli_main"),
    ("tropkex.cli", "transcript_from_json", "protocol.transcript_from_json"),
    ("tropkex.cli", "setup", "protocol.setup"),
    ("tropkex.cli", "run_exchange", "protocol.run_exchange"),
    ("tropkex.cli", "recover_key_targeting", "attack.recover_key_targeting"),
    ("tropkex.attack", "find_chain_exponent", "attack.find_chain_exponent"),
    ("tropkex.attack", "doubling_phase", "attack.doubling"),
    ("tropkex.attack", "derive_shared_key", "attack.derive"),
    ("tropkex.attack", "chain_compare", "tropical.chain_compare"),
    ("tropkex.attack", "power", "semidirect.power"),
    ("tropkex.protocol", "power", "semidirect.power"),
    ("tropkex.protocol", "derive_shared_key", "protocol.derive_shared_key"),
    ("tropkex.semidirect", "op_circ", "semidirect.op_circ"),
)

CLI, RECOVER, FIND, DOUBLING, OP_CIRC = (
    "cli.cli_main", "attack.recover_key_targeting", "attack.find_chain_exponent",
    "attack.doubling", "semidirect.op_circ",
)

# Spans each metric is computed from; a metric is omitted when one of its
# spans had no wrap target, so a renamed function never reads as zero.
_CALLS_AND_SECONDS = (
    "semidirect.op_circ", "semidirect.power", "protocol.derive_shared_key",
    "tropical.chain_compare",
)
REQUIRES = {
    "attack.search.ops": {FIND, DOUBLING, OP_CIRC},
    "attack.search.s": {FIND, DOUBLING},
    "attack.search.levels_per_op": {FIND, DOUBLING, OP_CIRC},
    "attack.ops_over_bound": {RECOVER, OP_CIRC},
    "attack.doubling.ops": {DOUBLING, OP_CIRC},
    "attack.doubling.s": {DOUBLING},
    "attack.t": {DOUBLING, OP_CIRC},
    "attack.derive.s": {"attack.derive"},
    "semidirect.op_circ.us_per_call": {OP_CIRC},
    "protocol.transcript_from_json.s": {"protocol.transcript_from_json"},
    "protocol.setup.s": {"protocol.setup"},
    "protocol.run_exchange.s": {"protocol.run_exchange"},
    "cli.cli_main.calls": {CLI},
    "cli.cli_main.self_s": {CLI},
    "trace.coverage": {CLI},
    **{f"{name}.calls": {name} for name in _CALLS_AND_SECONDS},
    **{f"{name}.s": {name} for name in _CALLS_AND_SECONDS},
}

# Span record fields.
NAME, START, END, PARENT, OP_ID, RETURNED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self.missing: list[str] = []  # "module.attribute" targets not found
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def unavailable_spans(self) -> set[str]:
        """Span names none of whose targets could be wrapped."""
        found = {name for module, attr, name in TARGETS if f"{module}.{attr}" not in self.missing}
        return {name for _, _, name in TARGETS} - found

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, False]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
                record[RETURNED] = True
                return result
            finally:
                record[END] = clock()
                stack.pop()

        return traced


def op_circ_breakdown(spans: list[list]) -> dict:
    """Per operation id: op_circ calls inside the recovery span, in the
    doubling phase, in the search (inside the chain search but outside
    doubling), and t (the doubling ops of doubling calls that returned)."""
    per_op = defaultdict(Counter)
    for span in spans:
        if span[NAME] != OP_CIRC:
            continue
        stats = per_op[span[OP_ID]]
        doubling = find = recover = None
        parent = span[PARENT]
        while parent >= 0:
            ancestor = spans[parent]
            if ancestor[NAME] == DOUBLING and doubling is None:
                doubling = ancestor
            elif ancestor[NAME] == FIND:
                find = ancestor
            elif ancestor[NAME] == RECOVER:
                recover = ancestor
            parent = ancestor[PARENT]
        if doubling is not None:
            stats["doubling"] += 1
            stats["t"] += doubling[RETURNED]
        elif find is not None:
            stats["search"] += 1
        if recover is not None:
            stats["recover"] += 1
        stats["all"] += 1
    return per_op


def layer_metrics(spans: list[list], bounds: dict, unavailable: set[str]) -> dict:
    """Per-layer counts and seconds over all spans of a traced run.

    ``bounds`` maps an operation id to the K its attack was given, for
    the share of the K^2 + K bound a recovery used.
    """
    duration = [span[END] - span[START] for span in spans]
    calls, seconds = Counter(), defaultdict(float)
    children = defaultdict(float)          # span index -> time of direct children
    doubling_under_find = defaultdict(float)
    for i, span in enumerate(spans):
        calls[span[NAME]] += 1
        seconds[span[NAME]] += duration[i]
        parent = span[PARENT]
        if parent >= 0:
            children[parent] += duration[i]
            if span[NAME] == DOUBLING and spans[parent][NAME] == FIND:
                doubling_under_find[parent] += duration[i]

    per_op = op_circ_breakdown(spans)
    doubling_ops = sum(s["doubling"] for s in per_op.values())
    search_ops = sum(s["search"] for s in per_op.values())
    t = sum(s["t"] for s in per_op.values())
    shares = [
        per_op[span[OP_ID]]["recover"] / (bounds[span[OP_ID]] ** 2 + bounds[span[OP_ID]])
        for span in spans if span[NAME] == RECOVER and bounds.get(span[OP_ID])
    ]
    cli_self = sum(duration[i] - children[i] for i, span in enumerate(spans) if span[NAME] == CLI)
    cli_total = seconds[CLI]

    metrics = {
        "attack.search.ops": search_ops,
        "attack.search.s": sum(
            duration[i] - doubling_under_find[i] for i, span in enumerate(spans) if span[NAME] == FIND
        ),
        "attack.search.levels_per_op": t / search_ops if search_ops else 0.0,
        "attack.ops_over_bound": max(shares, default=0.0),
        "attack.doubling.ops": doubling_ops,
        "attack.doubling.s": seconds[DOUBLING],
        "attack.t": t,
        "attack.derive.s": seconds["attack.derive"],
        "semidirect.op_circ.us_per_call": (
            1e6 * seconds[OP_CIRC] / calls[OP_CIRC] if calls[OP_CIRC] else 0.0
        ),
        "protocol.transcript_from_json.s": seconds["protocol.transcript_from_json"],
        "protocol.setup.s": seconds["protocol.setup"],
        "protocol.run_exchange.s": seconds["protocol.run_exchange"],
        "cli.cli_main.calls": calls[CLI],
        "cli.cli_main.self_s": cli_self,
        "trace.coverage": 1.0 - cli_self / cli_total if cli_total else 0.0,
    }
    for name in _CALLS_AND_SECONDS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = seconds[name]
    return {name: value for name, value in metrics.items() if not (REQUIRES[name] & unavailable)}


def cross_check(spans: list[list], results: dict, unavailable: set[str]) -> list[str]:
    """Compare span counts with each recovery's own ``op_count`` and ``t``.

    ``results`` maps operation id to the attack's result JSON.  Returns
    one message per mismatch; checks whose spans are unavailable are
    skipped, and the caller names the missing targets.
    """
    if not results or {RECOVER, FIND, DOUBLING, OP_CIRC} & unavailable:
        return []
    per_op = op_circ_breakdown(spans)
    errors = []
    for op_id, result in sorted(results.items()):
        stats, op_count = per_op[op_id], result["op_count"]
        if stats["recover"] != op_count:
            errors.append(
                f"op {op_id}: {stats['recover']} op_circ calls in the recovery span, "
                f"op_count {op_count}"
            )
        if stats["doubling"] + stats["search"] != op_count:
            errors.append(
                f"op {op_id}: doubling {stats['doubling']} + search {stats['search']} ops "
                f"!= op_count {op_count}"
            )
        if stats["t"] != result["t"]:
            errors.append(f"op {op_id}: {stats['t']} doubling ops, result t {result['t']}")
    if set(per_op) <= set(results):
        total = sum(stats["all"] for stats in per_op.values())
        expected = sum(result["op_count"] for result in results.values())
        if total != expected:
            errors.append(f"{total} op_circ calls in the run, summed op_count {expected}")
    return errors

"""Per-layer metrics from the spans of the traced passes.

Times are self times (a span minus what its child spans cover) unless the
metric says otherwise, in milliseconds per traced request; counts are per
traced request. Dividing by requests, not by calls, keeps every layer's
time additive: together they account for the request latency.
"""

from __future__ import annotations

import statistics

from spans import COUNTS, END, NAME, START, request_of, self_times

# metric -> span names whose self time it sums
SELF_MS = {
    "syntax.parse_ms": ("syntax.parse_program",),
    "refeval.ground_ms": ("refeval.ground_program",),
    "refeval.enumerate_ms": ("refeval.answer_sets", "refeval.optimal_answer_sets"),
    "refeval.check_ms": ("refeval.is_answer_set",),
    "systems.invoke_ms": ("systems.invoke_solver",),
    "systems.render_ms": ("systems.render_reference_output",),
    "systems.parse_ms": ("systems.parse_clingo_output",),
    "orchestration.overhead_ms": ("orchestration.start_sync", "orchestration.start_async",
                                  "orchestration.job"),
    "mapper.to_records_ms": ("mapper.answer_set_to_records",),
}

# metric -> span names whose whole duration it sums
DURATION_MS = {
    "orchestration.assemble_ms": ("orchestration.assemble_input",),
    "orchestration.submit_ms": ("orchestration.start_async",),
    "orchestration.callback_wait_ms": ("orchestration.job",),
    "mapper.to_facts_ms": ("mapper.record_to_fact",),
    "cli.process_ms": ("cli.process",),
    "cli.main_ms": ("cli.main",),
}

# metric -> (span name, count recorded on it)
SPAN_COUNTS = {
    "syntax.statements": ("syntax.parse_program", "statements"),
    "refeval.ground_rules": ("refeval.ground_program", "rules"),
    "refeval.ground_weaks": ("refeval.ground_program", "weaks"),
    "refeval.answer_sets": ("refeval.answer_sets", "sets"),
    "systems.atoms_parsed": ("systems.parse_clingo_output", "atoms"),
    "mapper.records": ("mapper.answer_set_to_records", "records"),
    "mapper.skipped": ("mapper.answer_set_to_records", "skipped"),
    "cli.stdout_bytes": ("cli.process", "stdout_bytes"),
}

# metric -> counter derived from each grounding (ground_counters)
GROUND_COUNTS = {
    "refeval.substitutions": "substitutions",
    "refeval.candidates": "candidates",
    "refeval.masks": "masks",
}

UNITS = {
    "syntax.bytes_per_ms": "bytes/ms",
    "refeval.relevant_ratio": "ratio",
    "refeval.yield_ratio": "ratio",
    "orchestration.callbacks_per_job": "count",
    "cli.startup_ms": "ms",
    "cli.startup_pct": "%",
    "trace.overhead_pct": "%",
}
for _name in list(SELF_MS) + list(DURATION_MS):
    UNITS[_name] = "ms"
for _name in list(SPAN_COUNTS) + list(GROUND_COUNTS):
    UNITS[_name] = "bytes" if _name.endswith("_bytes") else "count"

METRICS = sorted(UNITS)


def derivable(rules) -> set:
    """Least set of atoms closed under heads of rules whose positive body is in it."""
    waiting: dict = {}
    missing = []
    queue = []
    for index, rule in enumerate(rules):
        missing.append(len(rule.pos))
        for atom in rule.pos:
            waiting.setdefault(atom, []).append(index)
        if not rule.pos:
            queue.extend(rule.head)
    derived: set = set()
    while queue:
        atom = queue.pop()
        if atom in derived:
            continue
        derived.add(atom)
        for index in waiting.get(atom, ()):
            missing[index] -= 1
            if missing[index] == 0:
                queue.extend(rules[index].head)
    return derived


def ground_counters(program, gp) -> dict:
    """Work counters of one grounding, from public calls plus a derivability closure.

    substitutions: sum over statements of |universe| ** #variables, what naive
    grounding tries; kept: ground rules and weak constraints it keeps;
    relevant: kept instances whose positive body is derivable; candidates:
    derivable atoms that are not facts; masks: 2 ** candidates.
    """
    from aspkit import refeval

    universe = len(refeval.herbrand_universe(program))
    statements = list(program.rules) + list(program.weak_constraints)
    possible = derivable(gp.rules)
    facts = {next(iter(r.head)) for r in gp.rules if r.is_fact}
    candidates = len(possible - facts)
    return {
        "substitutions": sum(universe ** len(s.variables()) for s in statements),
        "kept": len(gp.rules) + len(gp.weak_constraints),
        "relevant": sum(r.pos <= possible for r in gp.rules)
        + sum(w.pos <= possible for w in gp.weak_constraints),
        "candidates": candidates,
        "masks": 2 ** candidates,
    }


def per_request(spans, requests) -> dict[int, dict]:
    """One row per traced request id: summed times and summed span counts."""
    own = self_times(spans)
    rows: dict[int, dict] = {rid: {"ms": {}, "count": {}} for rid in requests}
    for s in spans:
        row = rows.get(request_of(s))
        if row is None:
            continue
        for metric, names in SELF_MS.items():
            if s[NAME] in names:
                row["ms"][metric] = row["ms"].get(metric, 0.0) + own[id(s)] * 1e3
        for metric, names in DURATION_MS.items():
            if s[NAME] in names:
                row["ms"][metric] = row["ms"].get(metric, 0.0) + (s[END] - s[START]) * 1e3
        if s[COUNTS]:
            tally = row["count"].setdefault(s[NAME], {})
            for key, value in s[COUNTS].items():
                tally[key] = tally.get(key, 0) + value
    return rows


def metrics(spans, requests, untraced_ms: list, traced_ms: list,
            jobs: int, callbacks: int) -> dict[str, float]:
    rows = per_request(spans, requests).values()
    n = max(len(rows), 1)

    def total(name, key, among=rows):
        return sum(r["count"].get(name, {}).get(key, 0) for r in among)

    out = {}
    for metric in list(SELF_MS) + list(DURATION_MS):
        out[metric] = sum(r["ms"].get(metric, 0.0) for r in rows) / n
    for metric, (name, key) in SPAN_COUNTS.items():
        out[metric] = total(name, key) / n
    grounded = [r for r in rows if "refeval.ground_program" in r["count"]]
    for metric, key in GROUND_COUNTS.items():
        out[metric] = total("refeval.ground_program", key, grounded) / max(len(grounded), 1)

    parse_ms = out["syntax.parse_ms"] * n
    parsed = total("syntax.parse_program", "bytes")
    out["syntax.bytes_per_ms"] = parsed / parse_ms if parse_ms else 0.0
    kept = total("refeval.ground_program", "kept")
    relevant = total("refeval.ground_program", "relevant")
    out["refeval.relevant_ratio"] = relevant / kept if kept else 0.0
    enumerated = [r for r in grounded if "refeval.answer_sets" in r["count"]]
    masks = total("refeval.ground_program", "masks", enumerated)
    found = total("refeval.answer_sets", "sets", enumerated)
    out["refeval.yield_ratio"] = found / masks if masks else 0.0
    out["orchestration.callbacks_per_job"] = callbacks / jobs if jobs else 0.0
    out["cli.startup_ms"] = out["cli.process_ms"] - out["cli.main_ms"]
    process = out["cli.process_ms"]
    out["cli.startup_pct"] = 100 * out["cli.startup_ms"] / process if process else 0.0
    base = statistics.median(untraced_ms)
    out["trace.overhead_pct"] = 100 * (statistics.median(traced_ms) - base) / base
    return out

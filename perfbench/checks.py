"""Output checks for the end-to-end benchmark (see README.md).

Pure functions over the JSONL records one `rlslb run ... --out=FILE`
invocation writes. `check_invocation` returns the list of reasons the
invocation failed (empty when it passed) and the facts the benchmark
reads from it; `table_digest` hashes its deterministic records.
"""

import hashlib
import json

# Anomalies of this monitor are fed by wall-clock time; on a shared machine
# it warns whenever a neighbour steals the core, so it never fails a run.
IGNORED_MONITORS = {"latency_drift"}


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def table_digest(text):
    """sha256 of the deterministic `table` records, in output order.

    Timing tables are their own record type, so they are excluded."""
    h = hashlib.sha256()
    for line in text.splitlines():
        if line.strip() and json.loads(line).get("type") == "table":
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def num(cell):
    """Table cell ("4,005,404", "7.093") -> float."""
    return float(str(cell).replace(",", ""))


def matches_printed(value, text):
    """True when `value` rounds to the table cell `text` (half a unit in
    the last printed digit)."""
    plain = str(text).replace(",", "")
    decimals = len(plain.split(".")[1]) if "." in plain else 0
    return abs(value - float(plain)) <= 0.5 * 10.0 ** -decimals * (1 + 1e-9) + 1e-12


def find_table(records, title_part):
    for r in records:
        if r.get("type") == "table" and title_part in r.get("title", ""):
            return r
    return None


def row_dict(table, index=0):
    return dict(zip(table["headers"], table["rows"][index]))


def _common(records, scenario, params, errors):
    start = next((r for r in records if r.get("type") == "scenario_start"), None)
    if start is None or start.get("scenario") != scenario:
        errors.append("no scenario_start record for %s" % scenario)
    else:
        for key, value in params.items():
            if start["params"].get(key) != value:
                errors.append("param %s=%s not echoed (got %r)"
                              % (key, value, start["params"].get(key)))
    for r in records:
        if (r.get("type") == "anomaly" and r.get("severity") == "error"
                and r.get("monitor") not in IGNORED_MONITORS):
            errors.append("error anomaly %s/%s at step %s: %s" % (
                r.get("monitor"), r.get("metric"), r.get("step"), r.get("detail")))
    conformance = next((r for r in records if r.get("type") == "conformance"), None)
    if conformance is None:
        errors.append("no conformance record: the monitor roster did not run")
        return {}
    return {"gap_p50": conformance["gap"]["p50"]}


def _check_conservation(facts, errors):
    if facts["arrivals"] - facts["departures"] != facts["live_balls"]:
        errors.append("arrivals %d - departures %d != live balls %d" % (
            facts["arrivals"], facts["departures"], facts["live_balls"]))


def _serve(records, expect, errors, facts):
    n, events = int(expect["n"]), int(expect["events"])
    trajectory = find_table(records, "gap trajectory")
    summary = find_table(records, "summary")
    if trajectory is None or summary is None:
        errors.append("missing serve trajectory or summary table")
        return
    if ("n=%d " % n) not in trajectory["title"]:
        errors.append("trajectory is not for n=%d: %s" % (n, trajectory["title"]))
    s = row_dict(summary)
    last = row_dict(trajectory, -1)
    facts.update(events=int(num(s["events"])), arrivals=int(num(s["arrivals"])),
                 departures=int(num(s["departures"])),
                 migrations=int(num(s["migrations"])),
                 repair_migrations=int(num(s["repairs"])),
                 live_balls=int(num(last["live balls"])))
    if facts["events"] != events:
        errors.append("served %d events, asked for %d" % (facts["events"], events))
    _check_conservation(facts, errors)


def _capacity(records, expect, errors, facts):
    n = int(expect["n_list"])
    load = float(expect["load_list"])
    events = int(expect["epb"]) * int(load * n)
    cells = [r for r in records if r.get("type") == "frontier"]
    metrics = next((r for r in records if r.get("type") == "metrics"), None)
    if len(cells) != 1 or metrics is None:
        errors.append("expected one frontier record and a metrics record")
        return
    cell, counters = cells[0], metrics["counters"]
    if cell.get("skipped"):
        errors.append("frontier cell skipped by the memory budget")
        return
    if cell["n"] != n:
        errors.append("frontier cell ran n=%s, asked for n=%d" % (cell["n"], n))
    sweep = row_dict(find_table(records, "frontier sweep"))
    facts.update(events=cell["events"], arrivals=cell["arrivals"],
                 departures=counters.get("serve.departures", -1),
                 migrations=int(num(sweep["migrations"])),
                 live_balls=cell["live_balls"])
    if cell["events"] != events:
        errors.append("served %d events, asked for %d" % (cell["events"], events))
    if counters.get("serve.arrivals") != cell["arrivals"]:
        errors.append("metrics arrivals %s != frontier arrivals %s"
                      % (counters.get("serve.arrivals"), cell["arrivals"]))
    _check_conservation(facts, errors)


def _process(records, expect, errors, facts):
    n, reps = int(expect["n"]), int(expect["reps"])
    m = int(expect["ratio"]) * n
    table = find_table(records, "[process_compare]")
    if table is None or len(table["rows"]) != 1:
        errors.append("missing one-row process_compare table")
        return
    if ("n=%d, m=%d" % (n, m)) not in table["title"]:
        errors.append("table is not for n=%d, m=%d: %s" % (n, m, table["title"]))
    row = row_dict(table)
    if int(num(row["reps"])) != reps:
        errors.append("ran %s reps, asked for %d" % (row["reps"], reps))
    facts.update(reps=int(num(row["reps"])), events_mean=row["E[events]"],
                 moves_mean=row["E[moves]"], balance_time_mean=row["E[at stop]"],
                 events=int(num(row["reps"])) * num(row["E[events]"]))
    if expect.get("target") == "perfect":
        if row["reached"] != "1" or num(row["final disc"]) != 0:
            errors.append("did not reach perfect balance: reached=%s final disc=%s"
                          % (row["reached"], row["final disc"]))


CHECKERS = {"serve_adversarial": _serve, "serve_capacity": _capacity,
            "process_compare": _process}


def check_invocation(text, scenario, params):
    """(errors, facts) for one invocation's JSONL output.

    `params` are the key=value params it was given, plus "reps" for
    process_compare."""
    try:
        records = parse_jsonl(text)
    except ValueError as e:
        return ["unparseable JSONL: %s" % e], {}
    errors = []
    echoed = {k: v for k, v in params.items() if k != "reps"}
    facts = _common(records, scenario, echoed, errors)
    try:
        CHECKERS[scenario](records, params, errors, facts)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        errors.append("malformed %s output: %r" % (scenario, e))
    return errors, facts


def check_traced(traced, facts, scenario):
    """Reasons perfbench_traced's counts differ from the CLI's tables."""
    errors = []

    def same(key, want):
        got = traced.get("count." + key)
        if got != want:
            errors.append("traced %s=%s, CLI %s" % (key, got, want))

    if scenario == "process_compare":
        reps = facts["reps"]
        same("reps", reps)
        same("reached", reps)
        for key, printed in (("events", facts["events_mean"]), ("moves", facts["moves_mean"])):
            if not matches_printed(traced["count." + key] / reps, printed):
                errors.append("traced mean %s %s, CLI %s"
                              % (key, traced["count." + key] / reps, printed))
        if not matches_printed(traced["sim.balance_time_mean"], facts["balance_time_mean"]):
            errors.append("traced balance time %s, CLI %s"
                          % (traced["sim.balance_time_mean"], facts["balance_time_mean"]))
        return errors
    for key in ("events", "arrivals", "departures", "live_balls"):
        same(key, facts[key])
    if scenario == "serve_capacity":
        # The frontier table counts resample and repair migrations together.
        got = traced["count.migrations"] + traced["count.repair_migrations"]
        if got != facts["migrations"]:
            errors.append("traced migrations %s, CLI %s" % (got, facts["migrations"]))
    else:
        same("migrations", facts["migrations"])
        same("repair_migrations", facts["repair_migrations"])
    return errors

"""Self-test of the benchmark, at tiny sizes (about half a minute):

1. every workload, plain and traced, prints a result line of the
   documented schema with every metric of BENCHMARK.json;
2. the eval verifier rejects a corrupted answer set;
3. the serve verifier rejects a corrupted served answer;
4. the serve verifier rejects a lost acknowledged write: a transaction
   acknowledged before a SIGKILL whose WAL record is then torn off.

Run as ``python3 perfbench/run.py --self-test``; exits 0 iff all pass.
"""

import json
import math
import os
import shutil


def check(ok, what, problems):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def schema_problems(out, names, units):
    """Why `out` (a parsed result line) breaks the output contract."""
    bad = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"top-level keys {sorted(out)}")
        return bad
    if out["correct"] is not True:
        bad.append("correct is not true")
    for k in ("attempted", "failed"):
        if not isinstance(out[k], int) or isinstance(out[k], bool):
            bad.append(f"{k} is not a whole number")
    if out["attempted"] < 1 or out["failed"] != 0:
        bad.append(f"attempted={out['attempted']} failed={out['failed']}")
    if set(out["metrics"]) != set(names):
        bad.append(f"metric names differ: {sorted(set(out['metrics']) ^ set(names))}")
    for name, m in out["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units.get(name):
            bad.append(f"{name}: {m}")
        elif not isinstance(m["value"], float) or not math.isfinite(m["value"]):
            bad.append(f"{name}: value {m['value']!r}")
    return bad


def test_schema(run, problems):
    spec = run.spec()
    for workload in run.WORKLOADS:
        for trace in (False, True):
            section = "per_layer" if trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in spec[section]}
            out, _ = run.result_line(workload, seed=1, seconds=1, trace=trace,
                                     tiny=True)
            out = json.loads(json.dumps(out))  # as the driver reads it
            bad = schema_problems(out, units, units)
            if not trace:
                bad += [f"{n} is 0" for n, m in out["metrics"].items()
                        if m["value"] == 0]
            check(not bad, f"{workload} trace={int(trace)} result line: "
                  + ("; ".join(bad) or "schema holds"), problems)


def fresh_work(run):
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)


def test_eval_verifier(run, problems):
    fresh_work(run)
    files = run.eval_sources(seed=1, tiny=True)
    path = files["tree"]
    expected = run.reference_answers(path)
    _, _, code, out, _ = run.spawn_capture([run.CHILD, "eval", "gms", path])
    lines, _ = run.split_trace(out)
    check(run.eval_ok(code, lines, expected),
          "eval verifier accepts the gms answers", problems)
    corrupted = lines[:-1] + ["(t_0, t_0)"]
    check(not run.eval_ok(code, corrupted, expected),
          "eval verifier flags a corrupted answer", problems)
    check(not run.eval_ok(code, lines[1:], expected),
          "eval verifier flags a missing answer", problems)


def serve_session(run, world, db, txns):
    """A short session: `txns` acknowledged transactions, each followed
    by queries of its witness hubs.  Returns (daemon, log entries)."""
    daemon = run.Daemon(os.path.join(run.WORK, "hub.dl"), db)
    entries = []
    for _, ops, hubs in txns:
        entries.append(("txn", ops, daemon.request(run.txn_request(ops))))
        for hub in hubs:
            entries.append(("query", hub, daemon.request(run.query_request(hub))))
    return daemon, entries


def test_serve_verifier(run, problems):
    fresh_work(run)
    world = run.World(seed=1, tiny=True)
    with open(os.path.join(run.WORK, "hub.dl"), "w") as f:
        f.write(world.source())
    txns = [world.next_txn() for _ in range(8)]
    daemon, entries = serve_session(run, world, None, txns)
    check(daemon.shutdown() == 0, "daemon exits 0 on clean shutdown", problems)
    check(run.verify_serve(entries, run.World(seed=1, tiny=True)) == 0,
          "serve verifier accepts the served answers", problems)
    # drop one row from the last non-empty answer set
    i = max(k for k, e in enumerate(entries)
            if e[0] == "query" and e[-1]["answers"])
    reply = dict(entries[i][-1], answers=entries[i][-1]["answers"][1:])
    corrupted = entries[:i] + [entries[i][:-1] + (reply,)] + entries[i + 1:]
    check(run.verify_serve(corrupted, run.World(seed=1, tiny=True)) == 1,
          "serve verifier flags a corrupted served answer", problems)


def test_lost_write(run, problems):
    fresh_work(run)
    world = run.World(seed=1, tiny=True)
    with open(os.path.join(run.WORK, "hub.dl"), "w") as f:
        f.write(world.source())
    db = os.path.join(run.WORK, "db")
    # the last write links a hub to the head of chain 0, so its answers
    # gain the whole chain: a write that is lost shows
    hub = next(h for h in world.popular if "n_0" not in world.spokes[h])
    txns = [world.next_txn() for _ in range(4)]
    txns.append(("insert", [("insert", "spoke", (hub, "n_0"))], [hub]))
    for tear in (False, True):
        shutil.rmtree(db, ignore_errors=True)
        daemon, entries = serve_session(run, world, db, txns)
        daemon.kill()
        if tear:
            # the store loses the last acknowledged record (a torn tail
            # is repaired on reopen by dropping it)
            wal = os.path.join(db, "wal.magic")
            os.truncate(wal, os.stat(wal).st_size - 3)
        daemon = run.Daemon(os.path.join(run.WORK, "hub.dl"), db)
        entries.append(("query", hub, daemon.request(run.query_request(hub))))
        code = daemon.shutdown()
        failed = run.verify_serve(entries, run.World(seed=1, tiny=True))
        if tear:
            check(failed == 1, "serve verifier flags a lost acknowledged write",
                  problems)
        else:
            check(failed == 0 and code == 0,
                  "serve verifier accepts a crash restart that kept every write",
                  problems)


def main(run):
    problems = []
    test_schema(run, problems)
    test_eval_verifier(run, problems)
    test_serve_verifier(run, problems)
    test_lost_write(run, problems)
    print(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the magic-sets system.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all                 # every workload, as a table
    python3 perfbench/run.py --all --trace 1       # the per-layer breakdown
    python3 perfbench/run.py --self-test           # tiny sizes + verifier checks

This file is the harness: load generator, host-speed probe and answer
verifier, in one process.  The program under test runs in child
processes (``magic serve``, or ``perfbench/child.exe`` for one-shot
evaluations), so the harness measures from outside and its heap never
sits under the program's GC.  The workload seed stays here; the program
only sees the generated inputs.  See README.md in this directory.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; progress goes to
standard error.
"""

import argparse
import bisect
import functools
import gc
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
MAGIC = os.path.join(ROOT, "_build", "default", "bin", "magic_cli.exe")
CHILD = os.path.join(ROOT, "_build", "default", "perfbench", "child.exe")

# Every end-to-end timing is scaled by NOMINAL_PROBE_MS / (the probe
# times around it), so timings read as milliseconds on a host where the
# probe kernel takes NOMINAL_PROBE_MS (about what a 2-vCPU VM took when
# it ran the probe back to back).
NOMINAL_PROBE_MS = 0.4

# serve workloads: timed ops per --seconds (their op time alone takes
# about that long on the reference host)
SERVE_READ_OPS_PER_S = 700
SERVE_WRITE_OPS_PER_S = 165

# serve workloads: counters are read after this many ops, so that they
# repeat exactly from run to run whatever the host speed
COUNT_PREFIX_OPS = 2000

# serve workloads: hub popularity is Zipf with this exponent, which puts
# about 70% of queries on the cache-hit path
ZIPF = 1.5


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A harness-level failure: no result line is printed."""


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[8]


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


# ---------------------------------------------------------------------
# host-speed probe


class Probe:
    """A fixed stdlib-only OCaml kernel in its own process, run between
    every two ops; its duration tracks how fast the host runs OCaml code
    right now.  An op's timing is scaled by the probes around it.
    Probing between every two ops also keeps the host from idling
    between them, which by itself steadied the serve timings."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [CHILD, "probe"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1)
        self.times = []  # probe midpoints (perf_counter)
        self.ms = []
        for _ in range(5):  # page in the kernel before it counts
            self.tick()
        self.times.clear()
        self.ms.clear()

    def tick(self):
        t0 = time.perf_counter()
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        t1 = time.perf_counter()
        if not line:
            raise BenchError("probe process died")
        self.times.append((t0 + t1) / 2)
        self.ms.append(float(line))

    def factor(self, t0, t1):
        """Scale for an op that ran over [t0, t1]: nominal over the
        median of the three probes before it and the three after it."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_left(self.times, t1)
        near = self.ms[max(0, i - 3):i] + self.ms[j:j + 3]
        return NOMINAL_PROBE_MS / statistics.median(near) if near else 1.0

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            self.proc.wait()


class Timer:
    """Op timings per class, each tagged traced or not; read raw or
    scaled by the probes next to each op."""

    def __init__(self, probe):
        self.probe = probe
        self.samples = {}

    def add(self, cls, t0, t1, traced=False):
        self.samples.setdefault(cls, []).append((t0, t1, traced))

    def ms(self, cls, scaled=True, traced=None):
        return [(t1 - t0) * 1e3 * (self.probe.factor(t0, t1) if scaled else 1.0)
                for t0, t1, tr in self.samples.get(cls, [])
                if traced is None or tr == traced]

    def count(self, cls):
        return len(self.samples.get(cls, []))


# ---------------------------------------------------------------------
# building and spawning


def build():
    for rel in ("dune-project", "bin/magic_cli.ml", "perfbench/child.ml"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(f"not a checkout of the repository: {rel} missing")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/magic_cli.exe",
         "./perfbench/child.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("dune build failed")


def spawn_capture(argv):
    """Run argv to completion with stdout captured.  Returns
    (t0, t1, exit status, stdout text, max RSS in kB)."""
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)])
    os.close(w)
    chunks = []
    while True:
        b = os.read(r, 1 << 16)
        if not b:
            break
        chunks.append(b)
    _, status, ru = os.wait4(pid, 0)
    t1 = time.perf_counter()
    os.close(r)
    return (t0, t1, os.waitstatus_to_exitcode(status),
            b"".join(chunks).decode(), ru.ru_maxrss)


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------
# eval-mix: one fresh process per evaluation

ANCESTOR = "a(X,Y) :- p(X,Y).\na(X,Y) :- p(X,Z), a(Z,Y).\n"
NONLINEAR = "a(X,Y) :- p(X,Y).\na(X,Y) :- a(X,Z), a(Z,Y).\n"
SAME_GEN = "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,Z1), sg(Z1,Z2), down(Z2,Y).\n"
TC = "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\n"


def labels(rnd, n, prefix):
    """n distinct constants; the seed decides which node gets which."""
    ids = list(range(n))
    rnd.shuffle(ids)
    return [f"{prefix}_{i}" for i in ids]


def src_chain(rnd, n):
    # the numeric counting indices overflow past ~60 levels, so the
    # chain family stays short enough for gc/gsc
    v = labels(rnd, n + 1, "n")
    facts = [f"p({v[i]}, {v[i + 1]})." for i in range(n)]
    return ANCESTOR + "\n".join(facts) + f"\n?- a({v[0]}, Y).\n"


def src_tree(rnd, branching, depth):
    size = sum(branching ** k for k in range(depth + 1))
    v = labels(rnd, size, "t")
    facts, nxt, frontier = [], 1, [0]
    for _ in range(depth):
        new = []
        for parent in frontier:
            for _ in range(branching):
                facts.append(f"p({v[parent]}, {v[nxt]}).")
                new.append(nxt)
                nxt += 1
        frontier = new
    return ANCESTOR + "\n".join(facts) + f"\n?- a({v[0]}, Y).\n"


def src_same_generation(rnd, width, height):
    towers = list(range(width))
    rnd.shuffle(towers)

    def s(t, j):
        return f"s_{towers[t]}_{j}"

    facts = []
    for t in range(width):
        for j in range(height):
            facts.append(f"up({s(t, j)}, {s(t, j + 1)}).")
            facts.append(f"down({s(t, j + 1)}, {s(t, j)}).")
    for t in range(width - 1):
        facts.append(f"flat({s(t, height)}, {s(t + 1, height)}).")
    q = 1 + rnd.randrange(width - 2)  # an inner tower: one answer
    return SAME_GEN + "\n".join(facts) + f"\n?- sg({s(q, 0)}, Y).\n"


def src_nonlinear(rnd, n):
    v = labels(rnd, n + 1, "n")
    facts = [f"p({v[i]}, {v[i + 1]})." for i in range(n)]
    return NONLINEAR + "\n".join(facts) + f"\n?- a({v[0]}, Y).\n"


def src_random_dag(rnd, layers, width, degree):
    # layered random graph: every node has `degree` random successors in
    # the next layer, so reachability from layer 0 nearly saturates and
    # the work barely depends on the seed
    facts = []
    for layer in range(layers - 1):
        for i in range(width):
            for j in sorted(rnd.sample(range(width), degree)):
                facts.append(f"edge(g_{layer}_{i}, g_{layer + 1}_{j}).")
    return TC + "\n".join(facts) + f"\n?- tc(g_0_{rnd.randrange(width)}, Y).\n"


def eval_families(rnd, tiny):
    if tiny:
        return {
            "chain": src_chain(rnd, 10),
            "tree": src_tree(rnd, 2, 4),
            "samegen": src_same_generation(rnd, 5, 5),
            "nonlinear": src_nonlinear(rnd, 10),
            "tc": src_random_dag(rnd, 4, 6, 2),
        }
    return {
        "chain": src_chain(rnd, 50),
        "tree": src_tree(rnd, 3, 6),
        "samegen": src_same_generation(rnd, 40, 40),
        "nonlinear": src_nonlinear(rnd, 100),
        "tc": src_random_dag(rnd, 15, 50, 2),
    }


# One cycle of the mix.  gc/gsc only on acyclic ancestor (they diverge
# on the other families); gms, the CLI default, appears twice a family.
EVAL_CYCLE = [
    ("chain", "gms"), ("tree", "gms"), ("samegen", "gms"),
    ("nonlinear", "gms"), ("tc", "gms"),
    ("chain", "gsms"), ("tree", "gsms"), ("samegen", "gsms"),
    ("nonlinear", "gsms"), ("tc", "gsms"),
    ("chain", "gc"), ("tree", "gc"), ("chain", "gsc"), ("tree", "gsc"),
    ("chain", "auto"), ("tree", "auto"), ("samegen", "auto"),
    ("nonlinear", "auto"), ("tc", "auto"),
    ("chain", "gms"), ("tree", "gms"), ("samegen", "gms"),
    ("nonlinear", "gms"), ("tc", "gms"),
]

TRIVIAL_SRC = "e(a, b).\nr(X, Y) :- e(X, Y).\n?- r(a, Y).\n"

SPAN_LAYERS = [
    ("datalog.parse_ms", "parse"),
    ("analysis.preflight_ms", "preflight"),
    ("analysis.choose_ms", "choose"),
    ("core.rewrite_ms", "rewrite"),
    ("engine.load_ms", "load"),
    ("engine.eval_ms", "eval"),
    ("engine.answers_ms", "answers"),
]


def split_trace(out):
    lines, trace = [], None
    for line in out.splitlines():
        if line.startswith("%trace "):
            trace = json.loads(line[len("%trace "):])
        elif line:
            lines.append(line)
    return lines, trace


def eval_ok(code, lines, expected):
    """An eval op is correct iff it exits 0 and prints exactly the
    oracle's answers, in its order."""
    return code == 0 and lines == expected


def eval_sources(seed, tiny):
    """Write the mix's sources; returns {family: path}."""
    d = os.path.join(WORK, "eval")
    os.makedirs(d)
    files = {}
    for fam, src in eval_families(random.Random(seed), tiny).items():
        files[fam] = os.path.join(d, fam + ".dl")
        with open(files[fam], "w") as f:
            f.write(src)
    return files


def reference_answers(path):
    _, _, code, out, _ = spawn_capture([CHILD, "reference", path])
    if code != 0:
        raise BenchError(f"reference engine failed on {path}")
    return split_trace(out)[0]


def run_eval_mix(seed, seconds, trace, tiny):
    files = eval_sources(seed, tiny)
    trivial = os.path.join(WORK, "eval", "trivial.dl")
    with open(trivial, "w") as f:
        f.write(TRIVIAL_SRC)
    # oracle answers, outside any timed region
    expected = {fam: reference_answers(path) for fam, path in files.items()}

    probe = Probe()
    timer = Timer(probe)
    attempted = failed = 0
    max_rss_kb = 0
    traces = []
    cycles = 0
    try:
        # set-up: start-up of a trivial one-shot `magic eval`
        for _ in range(3 if tiny else 15):
            probe.tick()
            t0, t1, code, out, _ = spawn_capture([MAGIC, "eval", trivial])
            timer.add("setup", t0, t1)
            attempted += 1
            if code != 0 or "(a, b)" not in out:
                failed += 1
        probe.tick()

        deadline = time.perf_counter() + seconds
        gc.disable()
        # whole cycles only, so every run weighs the op types alike; in
        # a traced run, odd cycles are traced and even ones are not
        while cycles < 1 + trace or time.perf_counter() < deadline:
            traced = trace and cycles % 2 == 1
            for slot, (fam, method) in enumerate(EVAL_CYCLE):
                argv = [CHILD, "eval", method, files[fam]]
                if traced:
                    argv.append("--trace")
                t0, t1, code, out, rss = spawn_capture(argv)
                probe.tick()
                attempted += 1
                max_rss_kb = max(max_rss_kb, rss)
                lines, tr = split_trace(out)
                if not eval_ok(code, lines, expected[fam]):
                    failed += 1
                    log(f"eval-mix: {fam}/{method} failed (exit {code})")
                    continue
                timer.add(("auto" if method == "auto" else "eval", slot),
                          t0, t1, traced)
                if traced:
                    traces.append(tr)
            cycles += 1
        gc.enable()
    finally:
        probe.close()

    slots = [(("auto" if m == "auto" else "eval"), s)
             for s, (_, m) in enumerate(EVAL_CYCLE)]

    def ops_ms(scaled, only_auto=False, traced=None):
        return [x for cls in slots if not only_auto or cls[0] == "auto"
                for x in timer.ms(cls, scaled, traced)]

    def e2e(scaled):
        ops = ops_ms(scaled)
        return {
            "setup_s": median(timer.ms("setup", scaled)) / 1e3,
            "ops_per_s": len(ops) / (sum(ops) / 1e3),
            "p50_ms": median(ops),
            "p90_ms": p90(ops),
            "aux_p50_ms": median(ops_ms(scaled, only_auto=True)),
        }

    metrics = e2e(True)
    metrics["peak_rss_mb"] = max_rss_kb / 1024.0
    detail = {
        "eval_p50_ms": metrics["p50_ms"],
        "eval_p90_ms": metrics["p90_ms"],
        "auto_p50_ms": metrics["aux_p50_ms"],
        "ops": len(ops_ms(False)),
        "cycles": cycles,
    }
    layers = zero_layers()
    if trace:
        for name, key in SPAN_LAYERS:
            layers[name] = mean([t.get(key, 0.0) for t in traces])
        for key in ("iterations", "firings", "probes", "facts"):
            layers["engine." + key] = mean([t[key] for t in traces])
        layers["gc.minor_mwords"] = mean([t["minor_words"] / 1e6 for t in traces])
        layers["gc.major_collections"] = mean(
            [t["major_collections"] for t in traces])
        # per-slot medians of traced against plain cycles
        plain = sum(median(timer.ms(c, traced=False)) for c in slots)
        traced = sum(median(timer.ms(c, traced=True)) for c in slots)
        layers["trace.overhead_pct"] = (traced / plain - 1) * 100
    host_layers(layers, probe, e2e(False))
    return metrics, detail, layers, attempted, failed


# ---------------------------------------------------------------------
# serve-*: one long-lived `magic serve` daemon over a Unix socket

HUB = "q(X,Y) :- spoke(X,Z), tc(Z,Y).\n" + TC


class World:
    """The served EDB, the op generator and the verification model.

    `edge` is a forest of chains; each hub has two spokes into it.
    Queries ask q(h, Y) for a hub drawn from a Zipf popularity law:
    repeats hit the cache, first-time hubs install seeds and grow the
    magic cone.  The generator's own state runs ahead of what the daemon
    acknowledged, so verification replays into a fresh World."""

    def __init__(self, seed, tiny):
        rnd = random.Random(seed)
        self.chains, self.length = (4, 6) if tiny else (40, 30)
        self.hubs = 20 if tiny else 1000
        self.succ = {}
        for c in range(self.chains):
            for j in range(self.length - 1):
                self.succ[self.node(c, j)] = {self.node(c, j + 1)}
        # every hub has the same shape — spokes to the head and the
        # middle of two distinct chains — so which hubs the seed makes
        # popular does not change the work
        self.spokes = {}
        for h in range(self.hubs):
            a, b = rnd.sample(range(self.chains), 2)
            self.spokes[f"h_{h}"] = {self.node(a, 0),
                                     self.node(b, self.length // 2)}
        self.base_spokes = {h: sorted(ts) for h, ts in self.spokes.items()}
        self.popular = [f"h_{h}" for h in range(self.hubs)]
        rnd.shuffle(self.popular)
        acc, self.cum = 0.0, []
        for rank in range(self.hubs):
            acc += (rank + 1) ** -ZIPF
            self.cum.append(acc)
        self.rnd = random.Random(seed * 7919 + 17)
        self.txn_no = 0
        self.live = []  # (ops, witness hubs) of insert txns, oldest first
        self.pending = set()  # spokes inserted and not yet deleted
        self.memo = {}

    def node(self, c, j):
        return f"n_{c * self.length + j}"

    def source(self):
        facts = [f"edge({a}, {b})." for a in sorted(self.succ)
                 for b in sorted(self.succ[a])]
        facts += [f"spoke({h}, {t})." for h in sorted(self.spokes)
                  for t in sorted(self.spokes[h])]
        return HUB + "\n".join(facts) + f"\n?- q({self.popular[0]}, Y).\n"

    def pick_hub(self):
        x = self.rnd.random() * self.cum[-1]
        return self.popular[min(bisect.bisect_left(self.cum, x),
                                self.hubs - 1)]

    def next_txn(self):
        """The next transaction: (kind, [(op, relation, args)], witness
        hubs whose answers show the change).  Three insert transactions
        — an edge from a hub's spoke target to a fresh leaf, and a spoke
        into the last five nodes of a chain — then one that deletes what
        the oldest three inserted.  The EDB keeps its size while DRed
        runs on the closure (edge deletes) and counting on the join
        (spoke deletes); the small cones keep maintenance cheap."""
        self.txn_no += 1
        if self.txn_no % 4 == 0 and len(self.live) >= 6:
            gone, self.live = self.live[:3], self.live[3:]
            ops = [("delete", rel, args) for txn_ops, _ in gone
                   for _, rel, args in txn_ops]
            self.pending.difference_update(args for _, _, args in ops)
            return ("delete", ops, [h for _, hubs in gone for h in hubs])
        edge_hub = self.pick_hub()
        edge = (self.rnd.choice(self.base_spokes[edge_hub]), f"x_{self.txn_no}")
        while True:
            spoke_hub = self.pick_hub()
            spoke = (spoke_hub, self.node(self.rnd.randrange(self.chains),
                                          self.length - 1 - self.rnd.randrange(5)))
            if spoke[1] not in self.spokes[spoke_hub] \
                    and spoke not in self.pending:
                break
        ops = [("insert", "edge", edge), ("insert", "spoke", spoke)]
        hubs = [edge_hub, spoke_hub]
        self.pending.add(spoke)
        self.live.append((ops, hubs))
        return ("insert", ops, hubs)

    def next_is_delete(self):
        return (self.txn_no + 1) % 4 == 0 and len(self.live) >= 6

    # -- the model: only acknowledged transactions are applied

    def apply(self, ops):
        for op, rel, args in ops:
            table = self.succ if rel == "edge" else self.spokes
            if op == "insert":
                table.setdefault(args[0], set()).add(args[1])
            else:
                table[args[0]].discard(args[1])
        self.memo.clear()

    def answers(self, hub):
        if hub not in self.memo:
            seen, stack = set(), []
            for z in self.spokes.get(hub, ()):
                stack.extend(self.succ.get(z, ()))
            while stack:
                n = stack.pop()
                if n not in seen:
                    seen.add(n)
                    stack.extend(self.succ.get(n, ()))
            self.memo[hub] = sorted((hub, y) for y in seen)
        return self.memo[hub]


def txn_request(ops):
    return {"op": "txn", "ops": [{op: f"{rel}({args[0]}, {args[1]})"}
                                 for op, rel, args in ops]}


def query_request(hub):
    return {"op": "query", "atom": f"q({hub}, Y)"}


class Daemon:
    """A `magic serve` child; ready once it prints its listening line."""

    def __init__(self, src, db):
        # relative to the checkout root, where the harness and the daemon
        # both run: a Unix socket path must fit in 108 bytes
        sock_path = os.path.relpath(os.path.join(WORK, "d.sock"))
        argv = [MAGIC, "serve", src, "--socket", sock_path]
        if db:
            argv += ["--db", db]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        self.t_opened = None
        for line in self.proc.stdout:
            if line.startswith("% serve "):
                self.t_opened = time.perf_counter()
            if line.startswith("% listening on"):
                break
        else:
            raise BenchError(f"daemon exited before listening ({self.proc.wait()})")
        self.t_ready = time.perf_counter()
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(sock_path)
        self.f = self.sock.makefile("rwb")

    def timed(self, obj):
        t0 = time.perf_counter()
        self.f.write(json.dumps(obj).encode() + b"\n")
        self.f.flush()
        line = self.f.readline()
        t1 = time.perf_counter()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line), t0, t1

    def request(self, obj):
        return self.timed(obj)[0]

    def stats(self):
        return self.request({"op": "stats"})["stats"]

    def hwm_mb(self):
        return vm_hwm_mb(self.proc.pid)

    def close_socket(self):
        try:
            self.f.close()
            self.sock.close()
        except OSError:
            pass

    def kill(self):
        self.close_socket()
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def shutdown(self):
        """Clean shutdown; returns the daemon's exit code (1 if it did
        not acknowledge the request)."""
        try:
            ack = self.request({"op": "shutdown"})
        except (BenchError, OSError):
            ack = {}
        self.close_socket()
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code if ack.get("kind") == "shutdown" else (code or 1)


COUNTERS = ["cache_hits", "cache_misses", "cache_repairs", "cache_evictions",
            "seed_installs", "errors", "maint_firings", "persist_wal_records",
            "persist_checkpoints", "persist_replayed"]


def add_counters(acc, stats):
    return {k: acc.get(k, 0) + int(stats.get(k, 0)) for k in COUNTERS}


def verify_serve(entries, world):
    """Replay acknowledged transactions into a fresh model, in order,
    and check every query reply at its point in the sequence.  With one
    client in a closed loop, a reply must show exactly the transactions
    acknowledged before its request (a cache hit reports the epoch the
    entry was computed at, which may predate seed installs, so epochs
    alone do not order replies).  Returns the failed ops."""
    failed = 0
    for e in entries:
        kind, reply = e[0], e[-1]
        if kind == "txn":
            if reply.get("kind") == "committed":
                world.apply(e[1])
            else:
                failed += 1
                log(f"serve: txn refused: {reply}")
        else:
            hub = e[1]
            if reply.get("kind") != "answers":
                failed += 1
                log(f"serve: query refused: {reply}")
                continue
            got = sorted(tuple(r) for r in reply["answers"])
            if got != world.answers(hub):
                failed += 1
                log(f"serve: wrong answers for q({hub}, Y)")
    return failed


def run_serve(seed, seconds, trace, tiny, durable):
    world = World(seed, tiny)
    src = os.path.join(WORK, "hub.dl")
    with open(src, "w") as f:
        f.write(world.source())
    txn_share = 0.5 if durable else 0.05
    restart_every = 8 if tiny else 40  # transactions between crashes
    # A fixed op schedule, sized to take about `seconds` on the reference
    # host: the served state grows with every op (seed installs, cache),
    # so a time-boxed run would serve a different state on a faster or
    # slower host.  The wall-clock cap only guards against a hang.
    total_ops = int(seconds * (SERVE_WRITE_OPS_PER_S if durable
                               else SERVE_READ_OPS_PER_S))
    setups = 2 if tiny else 5
    db = os.path.join(WORK, "db") if durable else None
    wal = os.path.join(db, "wal.magic") if db else None
    op_rnd = random.Random(seed * 104729 + 3)

    probe = Probe()
    timer = Timer(probe)
    entries = []  # ("txn", ops, reply) | ("query", hub, reply), in order
    attempted = failed = 0
    daemon = None
    peak_mb = 0.0
    lay = {k: [] for k in ("reopen", "wire", "hit", "miss", "insert",
                           "delete", "ckpt", "wal_delta")}
    counts = None  # counters after COUNT_PREFIX_OPS ops
    acc = {}  # counters of killed incarnations
    disk = snapshot_bytes = 0
    try:
        # set-up: spawn until ready, several times, from scratch each time
        for i in range(setups):
            if db:
                shutil.rmtree(db, ignore_errors=True)
            probe.tick()
            daemon = Daemon(src, db)
            timer.add("setup", daemon.t_spawn, daemon.t_ready)
            probe.tick()
            if i < setups - 1:
                attempted += 1
                if daemon.shutdown() != 0:
                    failed += 1
                daemon = None

        ops = txns = 0
        witnesses = []  # witness hubs of txns since the last restart
        armed = None  # once armed: has the WAL been checkpointed since?
        cap = time.perf_counter() + 5 * seconds
        gc.disable()  # no harness pauses inside timed round trips
        while ops < total_ops:
            if time.perf_counter() > cap:
                raise BenchError(f"{total_ops} ops did not finish in {5 * seconds} s")
            probe.tick()
            # a traced run alternates blocks of 100 plain and traced ops
            traced = trace and (ops // 100) % 2 == 1
            if op_rnd.random() < txn_share:
                kind, txn_ops, hubs = world.next_txn()
                if traced and wal:
                    ckpt0 = daemon.stats()["persist_checkpoints"]
                    size0 = os.stat(wal).st_size
                reply, t0, t1 = daemon.timed(txn_request(txn_ops))
                timer.add("txn", t0, t1, traced)
                entries.append(("txn", txn_ops, reply))
                witnesses += hubs
                txns += 1
                if traced and reply.get("kind") == "committed":
                    lay[kind].append(reply["time_s"] * 1e3)
                    lay["wire"].append((t1 - t0 - reply["time_s"]) * 1e3)
                    if wal:
                        if daemon.stats()["persist_checkpoints"] > ckpt0:
                            lay["ckpt"].append((t1 - t0) * 1e3)
                        elif kind == "insert":
                            lay["wal_delta"].append(os.stat(wal).st_size - size0)
                if durable:
                    # every `restart_every` txns, arm a crash; it fires
                    # after the next WAL checkpoint, before the next delete
                    # txn, so every restart replays a short suffix of
                    # insert txns and seed installs
                    if txns % restart_every == 0:
                        armed, wal_size = False, os.stat(wal).st_size
                    elif armed is not None:
                        size = os.stat(wal).st_size
                        armed = armed or size < wal_size
                        wal_size = size
            else:
                hub = world.pick_hub()
                reply, t0, t1 = daemon.timed(query_request(hub))
                timer.add("query", t0, t1, traced)
                entries.append(("query", hub, reply))
                if traced and reply.get("kind") == "answers":
                    lay["hit" if reply["cache"] == "hit" else "miss"].append(
                        reply["time_s"] * 1e3)
                    lay["wire"].append((t1 - t0 - reply["time_s"]) * 1e3)
            ops += 1
            attempted += 1
            if trace and ops == COUNT_PREFIX_OPS:
                counts = add_counters(acc, daemon.stats())
            if armed and world.next_is_delete():
                # crash: SIGKILL, restart, then check (untimed) that every
                # transaction acknowledged since the last crash is visible
                armed = None
                if trace and counts is None:
                    acc = add_counters(acc, daemon.stats())
                peak_mb = max(peak_mb, daemon.hwm_mb())
                probe.tick()
                t0 = time.perf_counter()
                daemon.kill()
                daemon = Daemon(src, db)
                timer.add("restart", t0, daemon.t_ready)
                probe.tick()
                lay["reopen"].append((daemon.t_opened - daemon.t_spawn) * 1e3)
                for hub in sorted(set(witnesses)):
                    entries.append(("query", hub,
                                    daemon.request(query_request(hub))))
                    attempted += 1
                witnesses = []
        gc.enable()
        probe.tick()
        if trace and counts is None:
            counts = add_counters(acc, daemon.stats())
        peak_mb = max(peak_mb, daemon.hwm_mb())
        attempted += 1
        code = daemon.shutdown()
        daemon = None
        if code != 0:
            failed += 1
            log(f"serve: daemon exited {code} on clean shutdown")
        if db:
            snapshot_bytes = os.stat(os.path.join(db, "snapshot.magic")).st_size
            disk = snapshot_bytes + os.stat(wal).st_size
    finally:
        if daemon is not None:
            daemon.kill()
        probe.close()

    failed += verify_serve(entries, World(seed, tiny))

    primary, aux = ("txn", "restart") if durable else ("query", "txn")

    def e2e(scaled):
        all_ops = timer.ms("query", scaled) + timer.ms("txn", scaled)
        return {
            "setup_s": median(timer.ms("setup", scaled)) / 1e3,
            "ops_per_s": len(all_ops) / (sum(all_ops) / 1e3),
            "p50_ms": median(timer.ms(primary, scaled)),
            "p90_ms": p90(timer.ms(primary, scaled)),
            "aux_p50_ms": median(timer.ms(aux, scaled)),
        }

    metrics = e2e(True)
    metrics["peak_rss_mb"] = peak_mb
    detail = {
        "query_p50_ms": median(timer.ms("query")),
        "query_p90_ms": p90(timer.ms("query")),
        "txn_p50_ms": median(timer.ms("txn")),
        "txn_p90_ms": p90(timer.ms("txn")),
        "queries": timer.count("query"),
        "txns": timer.count("txn"),
    }
    if durable:
        detail["restart_p50_ms"] = median(timer.ms("restart"))
        detail["restarts"] = timer.count("restart")
        detail["disk_mb"] = disk / 1e6
    layers = zero_layers()
    if trace:
        lookups = counts["cache_hits"] + counts["cache_misses"]
        layers.update({
            "server.wire_ms": median(lay["wire"]),
            "server.query_hit_ms": median(lay["hit"]),
            "server.query_miss_ms": median(lay["miss"]),
            "server.hit_rate": counts["cache_hits"] / lookups if lookups else 0.0,
            "server.repairs": counts["cache_repairs"],
            "server.evictions": counts["cache_evictions"],
            "server.seed_installs": counts["seed_installs"],
            "server.errors": counts["errors"],
            "incr.txn_insert_ms": median(lay["insert"]),
            "incr.txn_delete_ms": median(lay["delete"]),
            "incr.maint_firings": counts["maint_firings"],
        })
        if durable:
            layers.update({
                "persist.reopen_ms": median(lay["reopen"]),
                "persist.checkpoint_txn_ms": median(lay["ckpt"]),
                "persist.checkpoints": counts["persist_checkpoints"],
                "persist.wal_records": counts["persist_wal_records"],
                "persist.replayed": counts["persist_replayed"],
                "persist.snapshot_bytes": snapshot_bytes,
                "persist.wal_bytes_per_txn": median(lay["wal_delta"]),
            })
        plain = median(timer.ms(primary, traced=False))
        layers["trace.overhead_pct"] = (
            median(timer.ms(primary, traced=True)) / plain - 1) * 100
    host_layers(layers, probe, e2e(False))
    return metrics, detail, layers, attempted, failed


# ---------------------------------------------------------------------
# metric tables and the command line

WORKLOADS = {
    "eval-mix": run_eval_mix,
    "serve-read": functools.partial(run_serve, durable=False),
    "serve-write-db": functools.partial(run_serve, durable=True),
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def units(section):
    return {m["name"]: m["unit"] for m in spec()[section]}


def zero_layers():
    """Every per-layer metric, 0 where the workload leaves the layer
    idle (or the harness cannot see into it)."""
    return {name: 0.0 for name in units("per_layer")}


def host_layers(layers, probe, raw):
    layers["host.probe_ms"] = median(probe.ms)
    for name, value in raw.items():
        layers["raw." + name] = value


def result_line(workload, seed, seconds, trace, tiny=False):
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    metrics, detail, layers, attempted, failed = WORKLOADS[workload](
        seed, seconds, trace, tiny)
    section = "per_layer" if trace else "end_to_end"
    table = layers if trace else metrics
    u = units(section)
    missing = set(u) - set(table)
    if missing:
        raise BenchError(f"{workload}: no value for {sorted(missing)}")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(table[name]), "unit": u[name]}
                    for name in u},
    }
    return out, detail


def print_table(workload, out, detail):
    print(f"== {workload}: attempted {out['attempted']}, failed "
          f"{out['failed']}, correct {str(out['correct']).lower()}")
    for name, m in out["metrics"].items():
        print(f"  {name:28s} {m['value']:14.4f} {m['unit']}")
    for name, v in detail.items():
        unit = ("ms" if name.endswith("_ms") else
                "MB" if name.endswith("_mb") else "count")
        print(f"  {name:28s} {v:14.4f} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a table of each")
    ap.add_argument("--self-test", action="store_true",
                    help="tiny sizes: output schema and verifier checks")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        if a.self_test:
            import selftest
            sys.exit(selftest.main(sys.modules[__name__]))
        if a.all:
            ok = True
            for w in WORKLOADS:
                out, detail = result_line(w, a.seed, a.seconds, a.trace == 1)
                print_table(w, out, detail)
                ok = ok and out["correct"]
            sys.exit(0 if ok else 1)
        if not a.workload:
            ap.error("one of --workload, --all or --self-test is required")
        out, _ = result_line(a.workload, a.seed, a.seconds, a.trace == 1)
        print(json.dumps(out))
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)


if __name__ == "__main__":
    main()

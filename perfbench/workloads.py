"""The four workloads: set-up, one request and its check, the closed loop.

Each request runs through a public entry point of aspkit and is checked
against the oracle's expectation before its latency is taken. In a traced
run each request is followed by a probe: separate public calls
(``assemble_input``, ``record_to_fact``, in-process ``cli.main``) that time
a layer the request itself cannot show, outside the latency window.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import logging
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import aspkit
from aspkit import cli, mapper, refeval

import inputs
import oracle
from spans import PARENT, REQUEST, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUEST_TIMEOUT = 120.0
SETUP_REPEATS = 7


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def calibration_ms() -> float:
    """Milliseconds for a fixed piece of pure-Python work shaped like the evaluator's.

    Tuples and frozensets hashed into dicts, bit-mask tests in a loop, and
    string rendering: the same interpreter paths aspkit spends its time in.
    Timed in thread CPU time, so waiting for the GIL behind another client
    does not count.
    """
    start = time.thread_time()
    index: dict = {}
    for i in range(4000):
        key = ("p", (i % 61, i % 53))
        index.setdefault(key, frozenset((i % 7, i % 11)))
    hits = 0
    for m in range(30000):
        if (m & 5) == 5 and not (m & 8):
            hits += 1
    text = ", ".join(sorted(f"{k[0]}({k[1][0]},{k[1][1]})" for k in index))
    if hits == 0 or not text:
        raise AssertionError("calibration work was skipped")
    return (time.thread_time() - start) * 1e3


def quiet_aspkit_logging() -> None:
    """Fixed logging configuration: aspkit's warnings are built, then dropped.

    The mapper logs one warning per skipped atom; an application with logging
    enabled pays for creating those records, so they stay enabled, but they
    go to a NullHandler instead of stderr.
    """
    logger = logging.getLogger("aspkit")
    logger.setLevel(logging.WARNING)
    logger.addHandler(logging.NullHandler())
    logger.propagate = False


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    clients = 1
    # Set-up a child process runs after `import aspkit`; see measure_setup.
    setup_code = "h = aspkit.Handler(aspkit.reference_solver())"

    def __init__(self, items, tracer: Tracer, workdir: Path):
        self.items = items
        self.tracer = tracer
        self.workdir = workdir

    def measure_setup(self, repeats: int) -> list[float]:
        """Seconds from starting a fresh interpreter until a request could be issued."""
        code = "import time, aspkit\n" + self.setup_code + "\nprint(repr(time.perf_counter()))"
        times = []
        for index in range(repeats + 1):  # the first one warms the file cache
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                                  capture_output=True, text=True, timeout=REQUEST_TIMEOUT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
            if index:
                times.append(float(proc.stdout.split()[-1]) - start)
        return times

    def prepare(self) -> None:
        pass

    def request(self, item, client: int, root) -> bool:
        raise NotImplementedError

    def probe(self, item, client: int, rid: int) -> bool:
        return True

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_assembly(tracer, handler, program, rid) -> None:
    """Span around `assemble_input` for one program added to ``handler``."""
    ident = handler.add_program(program)
    try:
        with tracer.span("orchestration.assemble_input", request=rid):
            handler.assemble_input()
    finally:
        handler.remove(ident)


class Solve(Workload):
    """enumerate and ground: one client, closed loop, `Handler.start_sync`."""

    def prepare(self) -> None:
        self.handler = aspkit.Handler(aspkit.reference_solver())

    def request(self, item, client, root) -> bool:
        ident = self.handler.add_program(item.text)
        try:
            output = self.handler.start_sync()
        finally:
            self.handler.remove(ident)
        return output.ok and self.check(item, output.answer_sets.sets)

    def probe(self, item, client, rid) -> bool:
        time_assembly(self.tracer, self.handler, item.text, rid)
        return True


class Enumerate(Solve):
    name = "enumerate"

    def check(self, item, sets) -> bool:
        got = {frozenset(str(a) for a in s.atoms) for s in sets}
        return len(sets) == len(item.expect) and got == item.expect


class Ground(Solve):
    name = "ground"

    def check(self, item, sets) -> bool:
        """Every answer set and cost matches, and compare_costs picks the oracle's optimum."""
        got = {frozenset(str(a) for a in s.atoms): s.cost for s in sets}
        if len(sets) != len(item.expect) or got != item.expect:
            return False
        best = sets[0].cost
        for s in sets[1:]:
            if refeval.compare_costs(s.cost, best) < 0:
                best = s.cost
        chosen = {atoms for atoms, c in got.items() if refeval.compare_costs(c, best) == 0}
        return chosen == oracle.optimal(item.expect)


class Embed(Workload):
    """Records in and out; two clients, each with a job outstanding on `start_async`."""

    name = "embed"
    clients = 2
    setup_code = (
        "reg = aspkit.SchemaRegistry([aspkit.PredicateSchema(p, tuple(aspkit.SchemaField(*f)"
        f" for f in fs)) for p, fs in {inputs.EMBED_SCHEMAS!r}])\n"
        "hs = [aspkit.Handler(aspkit.reference_solver(), reg) for _ in range(2)]"
    )

    def prepare(self) -> None:
        schemas = {
            pred: aspkit.PredicateSchema(pred, tuple(aspkit.SchemaField(*f) for f in fields))
            for pred, fields in inputs.EMBED_SCHEMAS
        }
        self.registry = aspkit.SchemaRegistry(list(schemas.values()))
        self.handlers = [aspkit.Handler(aspkit.reference_solver(), self.registry)
                         for _ in range(self.clients)]
        fields = dict(inputs.EMBED_SCHEMAS)
        self.mapped = {
            item.name: tuple(
                aspkit.record(schemas[pred], **{f[0]: v for f, v in zip(fields[pred], values)})
                for pred, values in item.records
            )
            for item in self.items
        }
        self.lock = threading.Lock()
        self.jobs = 0
        self.callbacks = 0

    def check(self, item, output) -> bool:
        if not output.ok or len(output.answer_sets.sets) != 1:
            return False
        records, skipped = mapper.answer_set_to_records(
            self.registry, output.answer_sets.sets[0].atoms)
        got = Counter((r.schema.predicate, tuple(r.values[f.field_id] for f in r.schema.fields))
                      for r in records)
        expected, expected_skipped = item.expect
        return got == expected and skipped == expected_skipped

    def request(self, item, client, root) -> bool:
        handler = self.handlers[client]
        done = threading.Event()
        result = {}
        rid = root[REQUEST] if root is not None else None

        def callback(output):
            result.update(ok=False, started=time.perf_counter(),
                          job_spans=self.tracer.take_orphans())
            with self.lock:
                self.callbacks += 1
            try:
                with self.tracer.span("bench.callback", parent=root, request=rid):
                    result["ok"] = self.check(item, output)
            except Exception:  # aspkit would only log it; count it and show it
                traceback.print_exc(file=sys.stderr)
            finally:
                done.set()

        program = aspkit.InputProgram(item.text).add_records(self.mapped[item.name])
        ident = handler.add_program(program)
        try:
            handler.start_async(callback, timeout=REQUEST_TIMEOUT)
            submitted = time.perf_counter()
        finally:
            handler.remove(ident)
        with self.lock:
            self.jobs += 1
        if not done.wait(REQUEST_TIMEOUT):
            return False
        job = self.tracer.add("orchestration.job", submitted, result["started"],
                              parent=root, request=rid)
        for span in result["job_spans"]:
            span[PARENT] = job
        return result["ok"]

    def probe(self, item, client, rid) -> bool:
        records = self.mapped[item.name]
        time_assembly(self.tracer, self.handlers[client],
                      aspkit.InputProgram(item.text).add_records(records), rid)
        with self.tracer.span("mapper.record_to_fact", request=rid):
            for r in records:
                mapper.record_to_fact(r.schema, r)
        return True


class Batch(Workload):
    """`aspkit solve` and `aspkit check` processes, one at a time."""

    name = "batch"

    def measure_setup(self, repeats: int) -> list[float]:
        """Seconds to write the bundled examples with `aspkit examples`."""
        times = []
        for index in range(repeats + 1):  # the first one warms the file cache
            dest = self.workdir / f"examples-{index}"
            start = time.perf_counter()
            for bundle in inputs.BATCH_BUNDLES:
                proc = subprocess.run(
                    [sys.executable, "-m", "aspkit", "examples", bundle, "--dest", str(dest)],
                    env=child_env(), capture_output=True, text=True, timeout=REQUEST_TIMEOUT)
                if proc.returncode != 0:
                    raise RuntimeError(f"aspkit examples failed: {proc.stderr.strip()}")
            if index:
                times.append(time.perf_counter() - start)
            self.files = dest
        return times

    def prepare(self) -> None:
        if not getattr(self, "files", None):
            self.measure_setup(0)
        for item in self.items:
            for name, text in item.files:
                (self.files / name).write_text(text)
        self.env = child_env()

    def argv(self, item) -> list[str]:
        return [str(self.files / a) if a.endswith(".lp") else a for a in item.argv]

    def request(self, item, client, root) -> bool:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "aspkit", *self.argv(item)],
                              env=self.env, capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT)
        end = time.perf_counter()
        self.tracer.add("cli.process", start, end, parent=root,
                        counts={"stdout_bytes": len(proc.stdout.encode())})
        return (proc.returncode, proc.stdout) == item.expect

    def probe(self, item, client, rid) -> bool:
        out = io.StringIO()
        with self.tracer.span("cli.main", request=rid), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.argv(item))
        return (code, out.getvalue()) == item.expect

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (Enumerate, Ground, Embed, Batch)}


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Sample:
    item: str
    latency: float  # seconds
    ok: bool
    traced: bool
    rid: int


class Loop:
    """Whole passes over the deck, shuffled per pass, until the time is up.

    Running whole passes keeps the mix of every run identical, so the
    latency distribution and throughput do not depend on where a run
    stopped.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"order/{workload.name}/{seed}")
        self.samples: list[Sample] = []
        self.rids = itertools.count(1)
        self.lock = threading.Lock()  # for the counters below; clients share them
        self.errors = 0
        self.calibration: list[float] = []  # one sample before each request
        self.calibrating = 0.0  # wall seconds spent on them, over all clients
        # In a traced run untraced requests are probed too (without spans),
        # so both kinds see the same work between requests.
        self.probing = False

    def one(self, item, client: int, traced: bool) -> None:
        tracer = self.workload.tracer
        started = time.perf_counter()
        self.calibration.append(calibration_ms())
        with self.lock:
            self.calibrating += time.perf_counter() - started
        rid = next(self.rids)
        start = time.perf_counter()
        try:
            with tracer.span("request", request=rid) as root:
                ok = self.workload.request(item, client, root)
        except Exception:
            ok = False
            self.report()
        latency = time.perf_counter() - start
        if self.probing:
            try:
                ok = self.workload.probe(item, client, rid) and ok
            except Exception:
                ok = False
                self.report()
            tracer.settle()
        self.samples.append(Sample(item.name, latency, ok, traced, rid))

    def warm_up(self, item) -> None:
        """One unmeasured request, so that lazy set-up is not timed."""
        self.one(item, 0, False)
        self.samples.clear()
        self.calibration.clear()
        self.calibrating = 0.0

    def report(self) -> None:
        with self.lock:
            self.errors += 1
            if self.errors <= 3:
                traceback.print_exc(file=sys.stderr)

    def run_items(self, items, traced: bool) -> None:
        if self.workload.clients == 1:
            for item in items:
                self.one(item, 0, traced)
            return
        queue = iter(items)

        def client(index):
            while True:
                with self.lock:
                    item = next(queue, None)
                if item is None:
                    return
                self.one(item, index, traced)

        threads = [threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}")
                   for i in range(self.workload.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(REQUEST_TIMEOUT * len(items))
            if t.is_alive():
                raise RuntimeError("client thread did not finish")

    def run(self, seconds: float, trace: bool) -> float:
        """Measured seconds of whole passes, less the time spent calibrating.

        A traced pass runs every item twice, untraced and traced, in the order
        first half untraced, first half traced, second half traced, second
        half untraced, so drift during the pass does not bias the overhead.
        Patches are only swapped while no request is in flight.
        """
        tracer = self.workload.tracer
        self.probing = trace
        elapsed = 0.0
        while True:
            order = list(self.workload.items)
            self.rng.shuffle(order)
            half = len(order) // 2
            stages = [(order, False)]
            if trace:
                stages = [(order[:half], False), (order[:half], True),
                          (order[half:], True), (order[half:], False)]
            for items, traced in stages:
                if traced:
                    tracer.install()
                start = time.perf_counter()
                try:
                    self.run_items(items, traced)
                finally:
                    elapsed += time.perf_counter() - start
                    if traced:
                        tracer.uninstall()
            if elapsed >= seconds:
                return elapsed - self.calibrating / self.workload.clients


def workdir_for(workload: str, seed: int, trace: int) -> Path:
    path = ROOT / "perfbench" / "_work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path

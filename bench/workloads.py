"""The four benchmark workloads, one per way gwstack is used.

Each workload builds its op list from the seed alone, sets up what its
ops share, runs one op (the timed part) and checks the op's output
against :mod:`oracles` (untimed).  Every call into gwstack goes through
``tr.call(span_name, fn, ...)``, which records a span when the run is
traced and is a plain call otherwise; ``tr.count`` likewise keeps
counts only when traced.  Span names are ``<layer>.<function>``; the
layers are gwstack's modules.

* ``table``   -- cold full-support enumeration, b = 2..9: engine bulk work;
* ``query``   -- cold single invariants, one fresh engine per op;
* ``targets`` -- large-b target construction and ring arithmetic only;
* ``cli``     -- a script of CLI commands, each in a fresh interpreter.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

import oracles
from gwstack import cli, golden, records
from gwstack.engine import Reconstructor
from gwstack.ring import (
    basis_element,
    build_p1b,
    build_p2,
    divisor_generation_check,
    qmul,
    specialize,
)

# What the installed ``gwstack`` console script runs (gwstack.cli:entry).
CLI_CHILD = "from gwstack.cli import entry; entry()"


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _enumerate(rec):
    return list(rec.enumerate_nonzero())


class Workload:
    """Closed loop, one client: each op starts when the previous one ends.

    ``mode`` says how an op calls gwstack: "library" (direct calls),
    and for ``cli`` also "spawn" (a fresh interpreter) and "main"
    (``cli.main`` in process).
    """

    e2e_mode = "library"  # how the untraced, timed passes run an op

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_ops(self) -> list[dict]:
        raise NotImplementedError

    def setup(self, tr) -> None:
        """Everything the ops share; run several times to time it."""
        self.support, _ = oracles.load_support()

    def before_pass(self) -> None:
        pass

    def before_op(self, mode: str) -> None:
        """Untimed, before each op."""

    def run(self, op: dict, tr, mode: str):
        raise NotImplementedError

    def check(self, op: dict, out, mode: str) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Table(Workload):
    """``Reconstructor(build_p1b(b)).enumerate_nonzero()`` for b = 2..9."""

    def make_ops(self):
        rng = random.Random(self.seed)
        return [{"b": b} for b in _shuffled(rng, range(2, 10))]

    def setup(self, tr):
        super().setup(tr)
        self.targets = {b: tr.call("ring.build_p1b", build_p1b, b) for b in range(2, 10)}

    def run(self, op, tr, mode):
        rec = tr.call("engine.init", Reconstructor, self.targets[op["b"]])
        rows = tr.call("engine.enumerate", _enumerate, rec)
        tr.count("engine.memo_entries", len(rec.cache))
        tr.count("engine.rows_nonzero", len(rows))
        return rows

    def check(self, op, rows, mode):
        found = {key.insertions: (key.d, value) for key, value in rows}
        return len(found) == len(rows) == oracles.ROW_COUNTS[op["b"]] and (
            found == self.support[op["b"]]
        )


class Query(Workload):
    """Cold single invariants, each on a fresh engine: 150 P(1,b) support
    keys (b = 6..9, n <= 12), 20 zero keys (identity insertion, no forced
    degree, divisor at degree 0) and 30 P^2 keys h^a (h^2)^(3d-1), d <= 6.
    """

    SUPPORT_OPS = 150
    MAX_N = 12
    HEAVY_N = 11
    P2_DEGREES = range(1, 7)
    P2_PER_DEGREE = 5
    ZERO_OPS = (("identity", 7), ("unforced", 7), ("divisor", 6))

    def make_ops(self):
        rng = random.Random(self.seed)
        support, work = oracles.load_support()
        keys = sorted(
            (len(ins), work[b, ins], b, ins)
            for b in range(6, 10)
            for ins in support[b]
            if len(ins) <= self.MAX_N
        )
        # Every key with n >= HEAVY_N is in every op list, which pins the
        # heavy tail and op_p90_ms.  The seed draws the rest by systematic
        # sampling over the keys sorted by cost (n, then the pinned work):
        # one key from each run of consecutive keys, so every seed gets
        # the same spread of cheap and dear keys.
        heavy = [key for key in keys if key[0] >= self.HEAVY_N]
        pool = keys[: len(keys) - len(heavy)]
        count = self.SUPPORT_OPS - len(heavy)
        cuts = [round(k * len(pool) / count) for k in range(count + 1)]
        chosen = heavy + [pool[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]
        ops = [{"kind": "support", "b": b, "ins": _shuffled(rng, ins)} for *_, b, ins in chosen]
        for kind, count in self.ZERO_OPS:
            for _ in range(count):
                b = rng.randrange(6, 10)
                ops.append({"kind": kind, "b": b, "ins": self._zero_key(rng, b, kind)})
        for d in self.P2_DEGREES:
            for _ in range(self.P2_PER_DEGREE):
                a = rng.randrange(4)
                ins = [1] * a + [2] * (3 * d - 1)
                ops.append({"kind": "p2", "d": d, "a": a, "ins": _shuffled(rng, ins)})
        return _shuffled(rng, ops)

    @staticmethod
    def _zero_key(rng, b, kind):
        while True:
            ins = sorted(rng.randrange(1, b) for _ in range(rng.randrange(4, 9)))
            degree = oracles.p1b_degree(b, ins)
            if kind == "identity":
                ins[0] = 0
                return _shuffled(rng, ins)
            if kind == "unforced" and degree is None:
                return _shuffled(rng, ins)
            # Every twisted key with a forced degree is nonzero for b <= 9;
            # a divisor insertion at degree 0 gives a zero with one.
            if kind == "divisor" and oracles.p1b_degree(b, ins[1:] + [b]) == 0:
                return _shuffled(rng, ins[1:] + [b])

    def setup(self, tr):
        super().setup(tr)
        self.n_d = oracles.kontsevich(max(self.P2_DEGREES))
        self.targets = {b: tr.call("ring.build_p1b", build_p1b, b) for b in range(6, 10)}
        self.targets["p2"] = tr.call("ring.build_p2", build_p2)

    def run(self, op, tr, mode):
        td = self.targets["p2" if op["kind"] == "p2" else op["b"]]
        rec = tr.call("engine.init", Reconstructor, td)
        value = tr.call("engine.gw", rec.gw, op["ins"])
        tr.count("engine.memo_entries", len(rec.cache))
        tr.count("engine.rows_nonzero", bool(value))
        return value

    def check(self, op, value, mode):
        if op["kind"] == "p2":
            return value == oracles.p2_value(self.n_d, op["a"], op["d"])
        expected = oracles.p1b_value(self.support, op["b"], op["ins"])
        return value == expected and bool(expected) == (op["kind"] == "support")


class Targets(Workload):
    """Large-b targets: ``build_p1b``, ``specialize``, powers of x by
    ``qmul`` and ``divisor_generation_check``; no engine at all."""

    # Every even b in [16, 48]; the seed draws each op's lambda and the
    # order.  A seeded b would move op_p50_ms by the cube of its ratio.
    ORDERS = range(16, 49, 2)

    def make_ops(self):
        rng = random.Random(self.seed)
        ops = []
        for b in self.ORDERS:
            p = rng.choice([s * m for s in (1, -1) for m in range(1, 10)])
            lam = Fraction(p, rng.randrange(1, 10))
            ops.append({"b": b, "lam": str(lam)})
        return _shuffled(rng, ops)

    def setup(self, tr):
        pass  # the references are closed forms

    def run(self, op, tr, mode):
        b, lam = op["b"], Fraction(op["lam"])
        td = tr.call("ring.build_p1b", build_p1b, b)
        ring = tr.call("ring.specialize", specialize, td, lam)
        x = basis_element(td, b)
        powers = [x]
        for _ in range(b):
            powers.append(tr.call("ring.qmul", qmul, td, powers[-1], x))
        generated = tr.call("ring.generation_check", divisor_generation_check, td, lam)
        return ring, powers, generated

    def check(self, op, out, mode):
        ring, powers, generated = out
        b, lam = op["b"], Fraction(op["lam"])
        return (
            ring.lam == lam
            and ring.mult_table == oracles.specialized_table(b, lam)
            and all(p.coeffs == oracles.x_power(b, k) for k, p in enumerate(powers, 1))
            and generated is (lam != 0)
        )


class Cli(Workload):
    """A seeded script of 100 CLI commands, each in a fresh interpreter.

    The cache file F is rebuilt before every pass from the memo snapshots
    of b = 2..8, so every pass starts from the same bytes.
    """

    e2e_mode = "spawn"
    BLOCKS = 10
    BLOCK = (
        "compute", "compute", "compute", "compute_cache", "compute_cache",
        "table", "table", "verify", "ring", "cache",
    )
    CACHE_ORDERS = range(2, 9)

    def make_ops(self):
        rng = random.Random(self.seed)
        support, _ = oracles.load_support()
        small = {
            b: sorted(ins for ins in support[b] if len(ins) <= 8)
            for b in self.CACHE_ORDERS
        }
        ops = []
        for block in range(self.BLOCKS):
            for slot, kind in enumerate(self.BLOCK):
                if kind.startswith("compute"):
                    b = rng.choice(self.CACHE_ORDERS)
                    ins = _shuffled(rng, rng.choice(small[b]))
                    argv = ["compute", "--b", str(b), "--insertions", ",".join(map(str, ins))]
                    if kind == "compute_cache":
                        argv += ["--cache", "{F}"]
                    op = {"cmd": "compute", "b": b, "ins": ins}
                elif kind == "table":
                    fmt = ("tsv", "jsonl")[slot % 2]
                    b = rng.randrange(2, 8)
                    argv = ["table", "--b", str(b), "--format", fmt]
                    op = {"cmd": "table", "b": b, "fmt": fmt}
                elif kind == "verify":
                    which = "all" if block % 2 else str(rng.randrange(2, 7))
                    argv = ["verify", "--b", which]
                    op = {"cmd": "verify", "which": which}
                elif kind == "ring":
                    b = rng.randrange(2, 17)
                    p = rng.choice([s * m for s in (1, -1) for m in range(1, 10)])
                    lam = Fraction(p, rng.randrange(1, 10))
                    argv = ["ring", "--b", str(b), f"--lambda={lam}", "--check-generation"]
                    op = {"cmd": "ring", "b": b, "lam": str(lam)}
                else:
                    argv = ["cache", "--path", "{F}"]
                    op = {"cmd": "cache"}
                op["argv"] = argv
                ops.append(op)
        return _shuffled(rng, ops)

    def setup(self, tr):
        super().setup(tr)
        snapshots = {}
        for b in self.CACHE_ORDERS:
            td = tr.call("ring.build_p1b", build_p1b, b)
            rec = tr.call("engine.init", Reconstructor, td)
            tr.call("engine.enumerate", _enumerate, rec)
            snapshots[b] = tr.call("engine.snapshot", rec.snapshot)
        lines = oracles.cache_lines(snapshots)
        self.cache_bytes = ("\n".join(lines) + "\n").encode("ascii")
        self.cache_records = len(lines)
        if not hasattr(self, "tmp"):
            work = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
            os.makedirs(work, exist_ok=True)
            self.tmp = tempfile.TemporaryDirectory(dir=work)
            self.path = os.path.join(self.tmp.name, "F.dat")
        self.before_pass()

    def before_pass(self):
        with open(self.path, "wb") as handle:
            handle.write(self.cache_bytes)

    def before_op(self, mode):
        # A fresh interpreter starts with these caches empty; so must an
        # op that runs in process, or its time would leave out building
        # the target and loading the golden tables.
        if mode != "spawn":
            cli._target_for.cache_clear()
            golden._load_tables.cache_clear()

    def close(self):
        self.tmp.cleanup()

    def run(self, op, tr, mode):
        argv = [self.path if a == "{F}" else a for a in op["argv"]]
        if mode == "spawn":
            src = os.path.dirname(os.path.dirname(cli.__file__))
            env = dict(os.environ, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", CLI_CHILD, *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            return proc.returncode, proc.stdout
        if mode == "main":
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = tr.call(f"cli.main.{op['cmd']}", cli.main, argv)
            return code, buf.getvalue()
        return getattr(self, f"_lib_{op['cmd']}")(op, tr, "--cache" in argv)

    # -- library replays: the calls each subcommand makes -----------------

    def _engine(self, tr, b):
        td = tr.call("ring.build_p1b", build_p1b, b)
        return tr.call("engine.init", Reconstructor, td)

    def _preload(self, tr, rec):
        """load_records -> one preload per target order, as the CLI does."""
        pairs = tr.call("records.load", records.load_records, self.path)
        loaded = [recd for _, recd in pairs]
        engines = {rec.td.power_basis: rec}
        for recd in loaded:
            if recd.b not in engines:
                engines[recd.b] = self._engine(tr, recd.b)
        for b, eng in engines.items():
            rows = [(r.d, r.insertions, r.value) for r in loaded if r.b == b]
            tr.call("engine.preload", eng.preload, rows)
        tr.count("records.records_loaded", len(loaded))
        tr.count("engine.memo_entries", sum(len(e.cache) for e in engines.values()))
        return loaded

    def _lib_compute(self, op, tr, cached):
        rec = self._engine(tr, op["b"])
        loaded = self._preload(tr, rec) if cached else []
        value = tr.call("engine.gw", rec.gw, op["ins"])
        tr.count("engine.rows_nonzero", bool(value))
        if cached:
            merged = {(r.b, r.insertions): r for r in loaded}
            for d, ins, v in tr.call("engine.snapshot", rec.snapshot):
                merged[(op["b"], ins)] = records.GWRecord(op["b"], d, ins, v)
            tr.call("records.save", records.save_records, self.path, merged.values())
            tr.count("records.records_saved", len(merged))
            tr.count("records.bytes_written", os.path.getsize(self.path))
        else:
            tr.count("engine.memo_entries", len(rec.cache))
        return 0, f"{value}\n"

    def _lib_table(self, op, tr, cached):
        rec = self._engine(tr, op["b"])
        rows = tr.call("engine.enumerate", _enumerate, rec)
        tr.count("engine.memo_entries", len(rec.cache))
        tr.count("engine.rows_nonzero", len(rows))
        found = {op["b"]: {k.insertions: (k.d, v) for k, v in rows}}
        return 0, oracles.table_output(found, op["b"], op["fmt"])

    def _lib_verify(self, op, tr, cached):
        orders = golden.TABLE_ORDERS if op["which"] == "all" else (int(op["which"]),)
        reports = [tr.call("golden.verify", golden.verify, b) for b in orders]
        tr.count("golden.rows_checked", sum(r.total for r in reports))
        lines = [f"P(1,{r.b}): {r.matched}/{r.total} rows match" for r in reports]
        if len(reports) > 1:
            matched = sum(r.matched for r in reports)
            lines.append(f"total: {matched}/{sum(r.total for r in reports)} rows match")
        return (0 if all(r.ok for r in reports) else 1), "".join(s + "\n" for s in lines)

    def _lib_ring(self, op, tr, cached):
        lam = Fraction(op["lam"])
        td = tr.call("ring.build_p1b", build_p1b, op["b"])
        ring = tr.call("ring.specialize", specialize, td, lam)
        generated = tr.call("ring.generation_check", divisor_generation_check, td, lam)
        return 0, (ring.mult_table, generated)

    def _lib_cache(self, op, tr, cached):
        pairs = tr.call("records.load", records.load_records, self.path)
        tr.count("records.records_loaded", len(pairs))
        by_b = {}
        for _, recd in pairs:
            by_b.setdefault(recd.b, []).append((recd.d, recd.insertions, recd.value))
        for b, rows in by_b.items():
            tr.call("engine.preload", self._engine(tr, b).preload, rows)
        return 0, f"{len(pairs)} records ok\n"

    # -- checks -------------------------------------------------------------

    def expected(self, op) -> str:
        cmd = op["cmd"]
        if cmd == "compute":
            return f"{oracles.p1b_value(self.support, op['b'], op['ins'])}\n"
        if cmd == "table":
            return oracles.table_output(self.support, op["b"], op["fmt"])
        if cmd == "verify":
            which = op["which"]
            return oracles.verify_output(range(2, 7) if which == "all" else (int(which),))
        if cmd == "ring":
            return oracles.ring_output(op["b"], Fraction(op["lam"]))
        return f"{self.cache_records} records ok\n"

    def check(self, op, out, mode):
        code, stdout = out
        if code != 0:
            return False
        if "--cache" in op["argv"] and not self._cache_intact():
            return False
        if mode == "library" and op["cmd"] == "ring":
            b, lam = op["b"], Fraction(op["lam"])
            table, generated = stdout
            return table == oracles.specialized_table(b, lam) and generated is (lam != 0)
        return stdout == self.expected(op)  # never empty

    def _cache_intact(self) -> bool:
        # Every compute --cache key is already in F, so the save must
        # rewrite exactly the bytes it loaded.
        with open(self.path, "rb") as handle:
            return handle.read() == self.cache_bytes


WORKLOADS = {"table": Table, "query": Query, "targets": Targets, "cli": Cli}

"""Command line front end.

Subcommands:

* ``compute`` -- evaluate one invariant of P(1,b);
* ``table``   -- tabulate all nonzero invariants with n > 3 twisted insertions;
* ``verify``  -- recompute the shipped golden tables;
* ``ring``    -- print the multiplication table at a chosen q;
* ``cache``   -- validate or normalize a record file.

Exit codes: 0 success, also when the reader of stdout closes it early
(``gwstack table ... | head``); 1 verification mismatch; 2 usage error;
3 unreadable or malformed file, the shipped golden table included, or a
``--cache`` file that cannot be written.  A command that exits 3 has
printed nothing: ``compute`` and ``table`` save before they print.  All
printed values are exact rationals; the output is deterministic byte for
byte.

Every command runs in a fresh interpreter, and where no bytecode is
written (``PYTHONDONTWRITEBYTECODE``) each module it imports is compiled
from source again.  So this module imports only ``target``, which every
command uses, and a command imports the rest when it runs: ``compute``
and ``table`` add ``engine``, reading or writing a record file
(``--cache``, ``cache``) adds ``engine`` and ``records``, ``verify``
adds ``golden``, which imports both, and ``ring`` adds ``ring``.

``compute`` and ``table`` optionally persist their memo to the record
file named by ``--cache`` and preload it on the next run.  ``records``
reads the file syntax only.  A record with b outside [1, ``_MAX_ORDER``]
rejects the file before any target is built.  A record
with an impossible degree, one that contradicts the structure constants
or the identity and divisor axioms, a key given two different values,
or a twisted n > 3 value that is not an integer in the target's gauge
(see ``engine.Plan``) rejects the whole file.  Other twisted
records are stored unchecked, so ``verify`` is their integrity check.
A save and ``cache --emit`` write one line per key.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .target import TABLE_ORDERS, TargetData, build_p1b, mults_from_insertions

if TYPE_CHECKING:
    from .engine import Reconstructor
    from .records import GWRecord

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_FILE = 3

# Largest b accepted from --b or a record file, checked before any target
# is built.  build_p1b takes about 10 ms at b = 100, 38 ms at b = 200 and
# 0.18 s at b = 400 (one pinned Xeon core, Python 3.11; median of 6 runs of 7 calls).
_MAX_ORDER = 100

# Largest b whose full twisted support `table` enumerates when --max-n is
# not given, checked before any target is built.  On one Xeon core
# `table --b B` takes about 0.11 s at b = 12 and 0.4 s at b = 16 end to
# end (medians of 9), and the cost grows about 1.2- to 1.8-fold per step
# of b.
_MAX_TABLE_ORDER = 16

# Longest --lambda text passed to Fraction().  Fraction() also parses
# exponent notation, and "1e10000000" costs it about 10 s, so exponents
# are rejected as well; both checks come before Fraction() is called.
_MAX_LAMBDA_LENGTH = 100


@lru_cache(maxsize=None)
def _target_for(b: int) -> TargetData:
    return build_p1b(b)


def _engine_for(b: int) -> Reconstructor:
    """A fresh engine on P(1,b); ``engine`` is first imported here."""
    from .engine import Reconstructor

    return Reconstructor(_target_for(b))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwstack",
        description="Exact genus-zero invariants of the weighted projective lines P(1,b).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    compute = subs.add_parser(
        "compute", help="evaluate one invariant from its insertions"
    )
    compute.add_argument("--b", type=int, required=True, help=f"target order, 1 <= b <= {_MAX_ORDER}")
    compute.add_argument(
        "--insertions",
        required=True,
        metavar="K1,K2,...",
        help="comma-separated basis exponents in [0, b] (0 identity, b divisor)",
    )
    _add_cache_option(compute)
    compute.set_defaults(handler=_cmd_compute, parser=compute)

    table = subs.add_parser(
        "table", help="tabulate all nonzero invariants with more than 3 insertions"
    )
    table.add_argument("--b", type=int, required=True, help=f"target order, 1 <= b <= {_MAX_ORDER}")
    table.add_argument(
        "--max-n",
        type=int,
        default=None,
        help=f"cap on insertion count (required for b > {_MAX_TABLE_ORDER})",
    )
    table.add_argument(
        "--format",
        choices=("human", "tsv", "jsonl"),
        default="human",
        help="output format (default: human)",
    )
    _add_cache_option(table)
    table.set_defaults(handler=_cmd_table, parser=table)

    ver = subs.add_parser("verify", help="recompute the shipped golden tables")
    ver.add_argument(
        "--b",
        required=True,
        choices=("all", *map(str, TABLE_ORDERS)),
        metavar="B|all",
        help=f"one of {TABLE_ORDERS[0]}..{TABLE_ORDERS[-1]}, or 'all'",
    )
    ver.set_defaults(handler=_cmd_verify, parser=ver)

    ring = subs.add_parser(
        "ring", help="print the specialized quantum multiplication table"
    )
    ring.add_argument("--b", type=int, required=True, help=f"target order, 1 <= b <= {_MAX_ORDER}")
    ring.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        metavar="VALUE",
        help="rational value of q, e.g. 1 or 2/3 (write --lambda=-1/2 for negatives)",
    )
    ring.add_argument(
        "--check-generation",
        action="store_true",
        help="report whether the divisor class generates the ring",
    )
    ring.set_defaults(handler=_cmd_ring, parser=ring)

    cache = subs.add_parser("cache", help="validate or normalize a record file")
    cache.add_argument("--path", required=True, help="record file to inspect")
    cache.add_argument(
        "--emit",
        action="store_true",
        help="print the normalized records instead of a summary",
    )
    cache.set_defaults(handler=_cmd_cache, parser=cache)
    return parser


def _add_cache_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="record file to preload and extend",
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except _record_error() as exc:
        print(f"gwstack: {exc}", file=sys.stderr)
        return EXIT_FILE


def _record_error():
    """``RecordError`` once ``records`` is loaded, else no class at all:
    a record file error can only come from that module."""
    records = sys.modules.get("gwstack.records")
    return () if records is None else records.RecordError


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early, as ``gwstack table ... | head`` does.
        # Point stdout at devnull so the interpreter's last flush is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_OK
    sys.exit(code)


# -- argument helpers ----------------------------------------------------------


def _check_order(args) -> int:
    if not 1 <= args.b <= _MAX_ORDER:
        args.parser.error(f"--b must lie in [1, {_MAX_ORDER}], got {args.b}")
    return args.b


def _parse_lambda(args) -> Fraction:
    if len(args.lam) > _MAX_LAMBDA_LENGTH:
        args.parser.error(
            f"--lambda must be at most {_MAX_LAMBDA_LENGTH} characters, got {len(args.lam)}"
        )
    if "e" in args.lam.lower():
        args.parser.error(f"--lambda takes no exponent notation, got {args.lam!r}")
    try:
        return Fraction(args.lam)
    except (ValueError, ZeroDivisionError):
        args.parser.error(f"--lambda must be a rational number, got {args.lam!r}")


def _preload_cache(rec: Reconstructor, path):
    """Load a record file into the engine; ``Reconstructor.preload`` says what it checks.

    Returns the loaded records so a later save can preserve entries
    for other target orders and redundant small-n rows.
    """
    if path is None or not os.path.exists(path):
        return []
    return _preload_records(path, {rec.td.power_basis: rec})


def _preload_records(path, engines: dict[int, Reconstructor]) -> list[GWRecord]:
    """Preload each record of ``path`` into ``engines[b]``, adding engines as needed."""
    from .records import RecordError, load_records

    pairs = load_records(path)
    for lineno, recd in pairs:
        if not 1 <= recd.b <= _MAX_ORDER:
            raise RecordError(f"{path}:{lineno}: b must lie in [1, {_MAX_ORDER}], got {recd.b}")
    for lineno, recd in pairs:
        eng = engines.get(recd.b)
        if eng is None:
            eng = engines[recd.b] = _engine_for(recd.b)
        try:
            eng.preload([(recd.d, recd.insertions, recd.value)])
        except ValueError as exc:
            raise RecordError(f"{path}:{lineno}: {exc}") from None
    return [recd for _, recd in pairs]


def _store_cache(rec: Reconstructor, path, loaded) -> None:
    if not path:
        return
    from .records import GWRecord, save_records

    b = rec.td.power_basis
    save_records(path, [*loaded, *(GWRecord(b, *row) for row in rec.snapshot())])


# -- subcommands ---------------------------------------------------------------


def _cmd_compute(args) -> int:
    b = _check_order(args)
    try:
        ins = [int(part) for part in args.insertions.split(",")]
    except ValueError:
        args.parser.error(f"--insertions must be comma-separated integers, got {args.insertions!r}")
    rec = _engine_for(b)
    loaded = _preload_cache(rec, args.cache)
    try:
        value = rec.gw(ins)
    except ValueError as exc:  # count, range, or the degenerate 2-point problem
        args.parser.error(str(exc))
    _store_cache(rec, args.cache, loaded)
    print(value)
    return EXIT_OK


def _cmd_table(args) -> int:
    b = _check_order(args)
    if args.max_n is None and b > _MAX_TABLE_ORDER:
        args.parser.error(
            f"the full support is tabulated for b <= {_MAX_TABLE_ORDER} only, "
            f"got {b}; give --max-n to cap the insertion count"
        )
    rec = _engine_for(b)
    loaded = _preload_cache(rec, args.cache)
    try:
        rows = list(rec.enumerate_nonzero(args.max_n))
    except ValueError as exc:  # a negative cap, or --max-n past one key
        args.parser.error(str(exc))
    _store_cache(rec, args.cache, loaded)
    if args.format == "jsonl":
        rows.sort()  # keys are unique, so this orders by (d, insertions)
        for (d, ins), value in rows:
            ks = ",".join(map(str, ins))
            print(f'{{"b":{b},"d":{d},"insertions":[{ks}],"value":"{value}"}}')
    else:
        labelled = [
            (key.d, mults_from_insertions(b, key.insertions), value)
            for key, value in rows
        ]
        labelled.sort(key=lambda t: (t[0], t[1]))
        if args.format == "tsv":
            for d, mults, value in labelled:
                cols = (str(d), ",".join(map(str, mults)), str(value))
                print("\t".join(cols))
        else:
            names = [
                f"N_{d}({','.join(map(str, mults))})" for d, mults, _ in labelled
            ]
            width = max(map(len, names), default=0)
            for name, (_, _, value) in zip(names, labelled):
                print(f"{name:<{width}} = {value!s}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    orders = TABLE_ORDERS if args.b == "all" else (int(args.b),)
    from .golden import verify

    reports = [verify(b) for b in orders]
    for report in reports:
        print(report.render())
    if len(reports) > 1:
        matched = sum(r.matched for r in reports)
        total = sum(r.total for r in reports)
        print(f"total: {matched}/{total} rows match")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


def _cmd_ring(args) -> int:
    from .ring import divisor_generation_check, specialize

    b = _check_order(args)
    lam = _parse_lambda(args)
    td = _target_for(b)
    ring = specialize(td, lam)
    print(f"ring {td.id} at q = {ring.lam!s}")
    names = td.basis_names
    rendered: dict[int, str] = {}  # id(vec) -> text; entries of one cell share a vector
    for i in range(td.basis_size):
        for j in range(i, td.basis_size):
            vec = ring.mult_table[i][j]
            if id(vec) not in rendered:
                rendered[id(vec)] = _render_combo(td, vec)
            print(f"{names[i]} * {names[j]} = {rendered[id(vec)]}")
    if args.check_generation:
        verdict = divisor_generation_check(td, lam)
        print(f"generated: {'true' if verdict else 'false'}")
    return EXIT_OK


def _render_combo(td: TargetData, vec) -> str:
    terms = []
    for l, c in enumerate(vec):
        if not c:
            continue
        name = td.basis_names[l]
        if l == td.fundamental_index:
            terms.append(str(c))
        elif c == 1:
            terms.append(name)
        else:
            terms.append(f"{c!s} {name}")
    return " + ".join(terms) if terms else "0"


def _cmd_cache(args) -> int:
    from .records import render_records

    loaded = _preload_records(args.path, {})
    if args.emit:
        sys.stdout.write(render_records(loaded))
    else:
        print(f"{len(loaded)} records ok")
    return EXIT_OK


if __name__ == "__main__":
    entry()

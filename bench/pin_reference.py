"""Write ``reference/p1b_support.txt``, the pinned P(1,b) tables for b = 2..9.

The rows for b <= 6 are the shipped golden table; the rows for
b = 7..9 are the engine's full twisted-support enumeration, and the
script refuses to write anything unless the engine reproduces the
golden rows exactly.  Each row also records the work of evaluating it
on a fresh engine (memo entries); the benchmark orders keys by it when
it samples them, and checks nothing against it.  The file was generated once, from the commit that
introduced the benchmark, and ``oracles.REFERENCE_SHA256`` pins its
bytes: regenerating it from a later commit would turn the benchmark's
check into a comparison of the engine with itself.

    PYTHONPATH=src python3 bench/pin_reference.py
"""

from __future__ import annotations

from pathlib import Path

from gwstack import Reconstructor, build_p1b, golden_rows

OUT = Path(__file__).resolve().parent / "reference" / "p1b_support.txt"


def main() -> None:
    lines = [
        "# Nonzero genus-zero invariants of P(1,b), b = 2..9, with more than",
        "# three insertions, all twisted non-divisor classes (exponents 1..b-1).",
        "# One row per invariant:  b  d  k_1,...,k_n  value  work",
        "# (sorted exponents; work = memo entries of a cold evaluation).",
    ]
    for b in range(2, 10):
        td = build_p1b(b)
        rows = sorted(
            (key.d, key.insertions, value)
            for key, value in Reconstructor(td).enumerate_nonzero()
        )
        if b <= 6:
            golden = sorted((r.d, r.insertions(), r.value) for r in golden_rows(b))
            if rows != golden:
                raise SystemExit(f"engine disagrees with the golden table at b={b}")
        for d, ins, v in rows:
            rec = Reconstructor(td)
            rec.gw(ins)
            lines.append(f"{b} {d} {','.join(map(str, ins))} {v} {len(rec.cache)}")
    OUT.write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()

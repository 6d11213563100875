"""Check that every ``--profile`` layer table in a captured output is conserved.

``python -m repro <command> --profile`` prints the run's layer table
after the run::

    PYTHONPATH=src python -m repro stream --dataset Talk --quick --profile | tee out.txt
    python scripts/check_profile.py out.txt

A table is conserved when its first row is the ``driver`` root and the
self times of all its rows sum to the root's total, to the printed
precision (six decimals per value).  The script prints each table's
``span_coverage_ratio`` line -- reported, not gated -- and exits
non-zero when the output holds no table or a table is not conserved.

Stdlib only.
"""

import sys

HEADER = "[profile] wall time by layer"
COVERAGE = "span_coverage_ratio"
ROOT = "driver"
#: Half a unit in the sixth decimal, per printed value.
ROUNDING = 0.5e-6


def tables(lines):
    """``[(rows, coverage line)]``: rows are ``(name, total, self)``."""
    found = []
    rows = None
    for line in lines:
        if line.startswith(HEADER):
            rows = []
        elif rows is None:
            continue
        elif line.strip().startswith(COVERAGE):
            found.append((rows, line.strip()))
            rows = None
        else:
            fields = line.split()
            if fields and fields[0] != "layer":
                rows.append((fields[0], float(fields[1]), float(fields[2])))
    return found


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        found = tables(handle.read().splitlines())
    if not found:
        print(f"check_profile: FAIL: no layer table in {argv[1]}", file=sys.stderr)
        return 1
    for rows, coverage in found:
        name, total, _ = rows[0]
        if name != ROOT:
            print(f"check_profile: FAIL: first row is {name!r}, not {ROOT!r}", file=sys.stderr)
            return 1
        attributed = sum(own for _, _, own in rows)
        gap = abs(attributed - total)
        if gap > ROUNDING * (len(rows) + 1):
            print(
                f"check_profile: FAIL: self times sum to {attributed:.6f}s, "
                f"the root's total is {total:.6f}s",
                file=sys.stderr,
            )
            return 1
        print(f"{len(rows)} rows, self times sum to {ROOT}'s {total:.6f}s; {coverage}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

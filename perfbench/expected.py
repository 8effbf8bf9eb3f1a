"""Expected verdicts for the eval-grid and smt-grid cells.

The table in expected.json holds the verdict of the brute-force oracle
(`fdl.oracle.oracle_check`) for each of the 8 `bench.FAMILIES` x 8
`bench.PATTERNS` cells at N=4 (eval-grid) and N=2 (smt-grid). It is
committed so that runs compare against a fixed reference and pay nothing
for it. Regenerate it, which takes a few minutes, with

    PYTHONPATH=src python3 perfbench/expected.py
"""

import json
import os
import sys

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     'expected.json')
SIZES = (2, 4)


def key(family: str, pattern: str, n: int) -> str:
    return '%s/%s/N%d' % (family, pattern, n)


def oracle_verdict(family: str, pattern: str, n: int) -> str:
    from fdl.bench import BenchCase
    from fdl.oracle import oracle_check
    goal, funcs = BenchCase(family, pattern, n).build()
    return oracle_check(goal, funcs)


def load() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)


def main() -> int:
    from fdl.bench import FAMILIES, PATTERNS
    table = {}
    for n in SIZES:
        for family in FAMILIES:
            for pattern in PATTERNS:
                table[key(family, pattern, n)] = oracle_verdict(
                    family, pattern, n)
                print(key(family, pattern, n), table[key(family, pattern, n)],
                      file=sys.stderr)
    with open(TABLE, 'w') as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write('\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())

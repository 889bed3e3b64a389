"""One command, every claim: validate the whole reproduction.

Runs each figure harness and checks the claim the paper attaches to it
(speedup bands, hiding ladder, interior optima, robustness sweeps, exact
buffer accounting), printing a verdict table.  ``--full`` prints the
whole ledger: the figures at their default sizes plus Fig. 9, the three
ablations, the training step, multi-node scaling and serving goodput.

Run:
    python examples/reproduce_paper.py [--full]
"""

import sys

from repro.bench.validation import format_claims, validate_all


def main(quick: bool = True) -> int:
    claims = validate_all(quick=quick)
    print(format_claims(claims))
    return 0 if all(c.passed for c in claims) else 1


if __name__ == "__main__":
    raise SystemExit(main(quick="--full" not in sys.argv))

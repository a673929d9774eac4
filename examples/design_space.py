#!/usr/bin/env python3
"""Scenario: sizing the predictor for a hardware budget.

Sweeps the two size axes the paper studies — history register length
(pattern table size doubles per bit) and history register table size /
organisation — and prints the accuracy grid, so an architect can pick the
smallest configuration meeting an accuracy target: the fewest history
bits, then the fewest HRT entries.

Run:  python examples/design_space.py [--scale N]
"""

import argparse

from repro import run_sweep

HISTORY_LENGTHS = [6, 8, 10, 12]
TABLES = ["AHRT(256", "AHRT(512", "HHRT(256", "HHRT(512"]


def spec_for(table: str, bits: int) -> str:
    return f"AT({table},{bits}SR),PT(2^{bits},A2),)"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=int, default=20_000)
    parser.add_argument("--target", type=float, default=0.92,
                        help="accuracy target to highlight")
    args = parser.parse_args()

    specs = [spec_for(table, bits) for table in TABLES for bits in HISTORY_LENGTHS]
    print(f"Sweeping {len(specs)} configurations...")
    sweep = run_sweep(specs, max_conditional=args.scale)

    print(f"\n{'table':12s}" + "".join(f"{bits:>4d}SR" for bits in HISTORY_LENGTHS))
    smallest = None
    for table in TABLES:
        row = f"{table + ')':12s}"
        entries = int(table.split("(")[1])
        for bits in HISTORY_LENGTHS:
            mean = sweep.mean(spec_for(table, bits))
            marker = "*" if mean >= args.target else " "
            row += f"{mean:5.3f}{marker}"
            size = (bits, entries)
            if mean >= args.target and (smallest is None or size < smallest[0]):
                smallest = (size, spec_for(table, bits), mean)
        print(row)

    print(f"\n* = meets the {args.target:.0%} target")
    if smallest:
        _, spec, mean = smallest
        print(f"smallest qualifying design: {spec}  ({mean:.3f})")
    else:
        print("no configuration meets the target — raise the budget")


if __name__ == "__main__":
    main()

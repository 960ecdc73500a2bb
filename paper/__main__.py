"""The one entry point: run the table/figure reproductions and print the
paper-style report.

Usage::

    python -m paper            # quick mode (laptop-friendly sizes)
    python -m paper --full     # full sweep
    python -m paper fig8 fig9  # selected experiments only

Exit status 2 names an unknown experiment; exit status 1 means an
experiment's result reports ``deviations`` (the witness scenarios do).
"""

from __future__ import annotations

import sys
import time

from paper import ablations, fig5, fig7, fig8, fig9, fig10, table1, table2, witness

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig5": fig5,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "ablations": ablations,
    "witness": witness,
}


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    quick = True
    if "--full" in args:
        quick = False
        args.remove("--full")
    selected = args or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from {sorted(EXPERIMENTS)}")
        return 2
    mode = "quick" if quick else "full"
    print(f"# LedgerDB verification reproduction — {mode} mode\n")
    deviations = 0
    for name in selected:
        module = EXPERIMENTS[name]
        start = time.perf_counter()
        result = module.run(quick=quick)
        elapsed = time.perf_counter() - start
        print(f"## {name}  ({elapsed:.1f}s)\n")
        print(module.render(result))
        print()
        deviations += getattr(result, "deviations", 0)
    return 1 if deviations else 0


if __name__ == "__main__":
    raise SystemExit(main())

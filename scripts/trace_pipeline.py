#!/usr/bin/env python3
"""Regularized traces of Green-function powers: pipeline vs closed forms.

For each operator square and each k, this runs the numerical regular-part
pipeline on the radial profile over S^{2k+1}, multiplies by the volume and
convention factor, and compares against the spectral reference value.  The
closed-form table values and the pipeline/table ratio are also printed;
the ratio is NOT constant in k, which is exactly why the spectral route is
the one used for validation.

The float pipeline works only for k <= 2: from k = 3 on, its Laurent fit
needs powers beyond double precision and raises FitUnstable, so --kmax
must be 1 or 2.

Usage:
    python scripts/trace_pipeline.py --kmax 2
"""

import argparse
import math

from spherehess.greens import (
    TraceKind,
    kv_trace_D2,
    kv_trace_L2,
    spectral_convention_factor,
    spectral_trace_reference,
    trace_from_pipeline,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kmax", type=int, default=2,
                        help="largest power k, 1 or 2")
    args = parser.parse_args()
    if not 1 <= args.kmax <= 2:
        parser.error("--kmax must be 1 or 2: the float pipeline works only "
                     "for k <= 2")

    table_fns = {TraceKind.L2: kv_trace_L2, TraceKind.D2: kv_trace_D2}
    cols = (
        "op",
        "k",
        "pipeline",
        "x factor",
        "spectral ref",
        "rel err",
        "table value",
        "pipeline/table",
    )
    print("  ".join(c.rjust(14) for c in cols))
    worst = 0.0
    for kind in (TraceKind.L2, TraceKind.D2):
        for k in range(1, args.kmax + 1):
            pipe = trace_from_pipeline(kind, k)
            factor = spectral_convention_factor(kind, k)
            reference = spectral_trace_reference(kind, k)
            rel = abs(factor * pipe.value - reference) / abs(reference)
            worst = max(worst, rel)
            coeff, pi_exp = table_fns[kind](k)
            table_val = float(coeff) * math.pi**pi_exp
            row = (
                kind.value,
                str(k),
                f"{pipe.value:+.8e}",
                str(factor),
                f"{reference:+.8e}",
                f"{rel:.2e}",
                f"{table_val:+.8e}",
                f"{pipe.value / table_val:.6f}",
            )
            print("  ".join(c.rjust(14) for c in row))
    print()
    print(f"worst pipeline-vs-spectral relative error: {worst:.3e}")
    return 0 if worst < 1e-4 else 1


if __name__ == "__main__":
    raise SystemExit(main())

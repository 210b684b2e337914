#!/usr/bin/env python3
"""Print the analytic complexity table for the built-in parameter presets,
with the literature-reported figures alongside for comparison.

Usage: python scripts/reproduce_estimates.py
"""

import math

from fuzzyvault import PRESETS, analysis
from fuzzyvault.presets import reference_lines


def main() -> None:
    rows = []
    for preset in PRESETS.values():
        est = analysis.estimate(preset.r, preset.t, preset.k, D=preset.D, q=preset.q)
        rows.append((preset, est))

    print(analysis.to_csv([est for _, est in rows]), end="")
    print()
    print("reference figures from the published parameter families:")
    for preset, est in rows:
        for line in reference_lines(preset, est) or ["no reported complexity on record"]:
            print(f"  {preset.name}: {line}")
    print()
    print("supplementary figures for the clancy family:")
    exact = analysis.trial_odds(313, 38, 14)[1]
    print(f"  exact trial odds:       2^{exact:.2f}")
    print(f"  1.1*(r/t)^k estimate:   2^{analysis.trial_estimate_log2(313, 38, 14):.2f}")
    print(f"  minimal-t conjecture:   threshold cost at t=20 is "
          f"2^{analysis.threshold_work_log2(313, 20, 17):.2f} "
          f"(t=38 gives 2^{analysis.threshold_work_log2(313, 38, 17):.2f})")
    quiz_bits = 14 * math.log2(8)
    print(f"  quiz hardening (n=8):   +{quiz_bits:.0f} bits on the attack side")


if __name__ == "__main__":
    main()

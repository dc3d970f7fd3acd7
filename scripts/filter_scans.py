"""Inputs of the CI checks that outcomes do not depend on the warning filter.

    python scripts/filter_scans.py overflow-spec PATH
        writes the sweep spec of the overflow scan to PATH: G-/kappa =
        1e-3 ... 1e297 at G+/G- = 1/2 and 1 on the appendixC point, which
        the CI step runs with `omsqueeze sweep` under `-W default` and
        `-W error` and compares byte for byte;
    python -W FILTER scripts/filter_scans.py stepper-verdicts
        prints, for W = -r 1_8 over r = 1e-3 ... 1e300, whether
        `integrate` and `evolve_to_steady` return or which error they raise;
        the CI step compares the output under both filters.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from omsqueeze import appendix_c_params, evolve_to_steady, integrate

RATES = (1e-3, 1e4, 1e8, 1e12, 1e16, 1e40, 1e60, 1e100, 1e300)


def overflow_spec() -> dict:
    return {
        "name": "overflow-scan",
        "base": appendix_c_params().to_json(),
        "axes": [
            {"name": "g_minus_over_kappa", "values": [10.0**k for k in range(-3, 298)]},
            {"name": "g_plus_over_g_minus", "values": [0.5, 1.0]},
        ],
    }


def stepper_verdicts() -> list[str]:
    runs = {
        "integrate": lambda w: integrate(w, np.eye(8), 3 * np.eye(8), t_end=10.0),
        "evolve_to_steady": lambda w: evolve_to_steady(w, np.eye(8), 3 * np.eye(8)),
    }
    lines = []
    for r in RATES:
        for name, run in runs.items():
            try:
                run(-r * np.eye(8))
                verdict = "no error"
            except Exception as exc:
                verdict = type(exc).__name__
            lines.append(f"{name} r={r:g}: {verdict}")
    return lines


def main(argv: list[str]) -> int:
    if argv[:1] == ["overflow-spec"] and len(argv) == 2:
        with open(argv[1], "w") as fh:
            json.dump(overflow_spec(), fh)
        return 0
    if argv == ["stepper-verdicts"]:
        print("\n".join(stepper_verdicts()))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

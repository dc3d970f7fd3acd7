"""Every figure preset against its fingerprint in tests/golden/figures.json
(regenerated by tests/golden_figures.py)."""

import json

from golden_figures import GOLDEN, GRID_NAMES, differences, fingerprint


def test_every_figure_matches_its_fingerprint(figure_results):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(expected["grids"]) == set(GRID_NAMES)
    changed = differences(expected, fingerprint(figure_results))
    assert changed == [], "\n".join(changed)

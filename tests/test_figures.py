"""Every figure preset against its fingerprint in tests/golden/figures.json
(regenerated by tests/golden_figures.py)."""

import json

from golden_figures import GOLDEN, GRID_NAMES, differences, fingerprint, merge


def test_every_figure_matches_its_fingerprint(figure_results):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(expected["grids"]) == set(GRID_NAMES)
    changed = differences(expected, fingerprint(figure_results))
    assert changed == [], "\n".join(changed)


def test_regeneration_rewrites_only_the_flagged_entries():
    """A float within RTOL keeps its stored value; one past it, and a changed
    count, take the fresh value and are the entries listed."""
    stored = {"grid": {"sum": 2.0, "max": 3.0, "rows": 5}, "plateau": 7.0}
    fresh = {"grid": {"sum": 2.0 * (1 + 1e-13), "max": 3.0 * (1 + 1e-9), "rows": 6},
             "plateau": 7.0}
    merged, flagged = merge(stored, fresh)
    assert merged == {"grid": {"sum": 2.0, "max": fresh["grid"]["max"], "rows": 6},
                      "plateau": 7.0}
    assert flagged == differences(stored, fresh)
    assert [line.split(":")[0] for line in flagged] == ["/grid/max", "/grid/rows"]

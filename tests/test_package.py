"""Package surface: what ``driftchain`` exports."""

import driftchain


def test_every_export_resolves_and_is_listed_once():
    names = driftchain.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(driftchain, name)]
    assert missing == []

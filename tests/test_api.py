"""Public API surface: every exported name resolves."""

import pytest

from grasschan import capacity, channels, fock, verify


@pytest.mark.parametrize("module", [capacity, channels, fock, verify], ids=lambda m: m.__name__)
def test_all_exports_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_resolve():
    import grasschan

    assert [name for name in grasschan.__all__ if not hasattr(grasschan, name)] == []
    assert grasschan.verify is verify
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        grasschan.missing

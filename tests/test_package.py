import daqc


def test_every_exported_name_exists():
    missing = [name for name in daqc.__all__ if not hasattr(daqc, name)]
    assert missing == []

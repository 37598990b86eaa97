import khbraid


def test_every_public_name_resolves():
    # a name left in __all__ after its definition goes breaks
    # "from khbraid import *"
    missing = [name for name in khbraid.__all__ if not hasattr(khbraid, name)]
    assert not missing
    assert len(set(khbraid.__all__)) == len(khbraid.__all__)

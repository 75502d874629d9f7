import advreject


def test_every_public_name_imports():
    namespace = {}
    exec("from advreject import *", namespace)  # raises AttributeError on a stale __all__ entry
    assert set(advreject.__all__) <= set(namespace)
    assert len(set(advreject.__all__)) == len(advreject.__all__)

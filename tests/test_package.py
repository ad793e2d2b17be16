import types

import shallowboson as sb


def test_all_names_the_public_imports_once():
    assert len(sb.__all__) == len(set(sb.__all__))
    for name in sb.__all__:
        assert getattr(sb, name) is not None
    imported = {name for name, value in vars(sb).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert set(sb.__all__) == imported

"""The benchmark tracer (``perfbench/tracing.py``) wraps names across ``aucap``.

Installing it must find every name it patches, and restoring it must leave
every module and class attribute as it was, so a renamed or deleted traced
name fails here instead of only in the benchmark's own, much slower, test.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import aucap

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def attributes():
    """Every module attribute and class attribute of ``aucap``, keyed by where it lives."""
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(aucap.__path__, "aucap.")]
    out = {}
    for module in modules:
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module.__name__, name, attr)] = member
    return out


def test_install_wraps_every_name_and_restore_puts_back_the_originals():
    tracing = load_tracing()
    before = attributes()
    installer = tracing.install(tracing.Tracer("contract"))
    patched = list(installer._saved)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner!r}.{attr} was not wrapped"
    finally:
        installer.restore()
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

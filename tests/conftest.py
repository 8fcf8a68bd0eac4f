"""Shared test hooks.

The package memoises its derivation stages in module-level functools
caches.  Tests outside this directory (the benchmark's self-tests) count
the calls those stages make, so a run that goes on past `tests/` must
not hand them stages these tests already filled.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent


def clear_package_caches() -> None:
    """Empty every functools cache held by a loaded z22field module."""
    for name, module in list(sys.modules.items()):
        if name == "z22field" or name.startswith("z22field."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def pytest_runtest_teardown(item, nextitem):
    # the last item of this directory: the run moves on, or ends
    if nextitem is None or _HERE not in Path(nextitem.path).resolve().parents:
        clear_package_caches()

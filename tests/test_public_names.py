"""Every name a carnot module lists in ``__all__`` must resolve.

A stale entry breaks ``from carnot.<module> import *``.
"""

import importlib
import pkgutil

import carnot


def test_all_names_resolve():
    listed = 0
    missing = []
    for info in pkgutil.iter_modules(carnot.__path__):
        mod = importlib.import_module("carnot." + info.name)
        names = getattr(mod, "__all__", ())
        listed += len(names)
        missing += [
            "carnot.%s.%s" % (info.name, name)
            for name in names
            if not hasattr(mod, name)
        ]
    assert listed > 0
    assert missing == []

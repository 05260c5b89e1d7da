"""Site census: the size of ``DTXSite`` is pinned.

The paper's DTX instance has four roles (Fig. 1: Listener, Scheduler,
LockManager, DataManager), and the site class is being cut along them into
role objects, one slice at a time (the view subsystem lives in
``repro.views.ViewManager`` and the site only calls its hooks). This guard,
the sibling of ``test_config_census.py``, pins the number of methods the
class defines, so that the next slice moved out, or a method drifting back
in, is a visible diff here.
"""

import inspect

from repro.core.site import DTXSite

#: Methods that were moved to the ViewManager; the site keeps hook calls.
VIEW_METHODS = (
    "_try_view_read", "_handle_view_read", "_view_fetch", "_hydrate_view_proc",
    "_handle_view_delta", "_view_push_loop", "host_view", "hydrate_view",
)


def site_methods() -> list[str]:
    return [
        name
        for name, value in vars(DTXSite).items()
        if inspect.isfunction(value) or isinstance(value, (property, staticmethod, classmethod))
    ]


def test_site_method_count_is_pinned():
    methods = site_methods()
    assert len(methods) == 92, sorted(methods)


def test_view_subsystem_stays_out_of_the_site():
    assert not set(VIEW_METHODS) & set(site_methods())

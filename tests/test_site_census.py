"""Site census: the size of ``DTXSite`` is pinned.

The paper's DTX instance has four roles (Fig. 1: Listener, Scheduler,
LockManager, DataManager), and the site class is being cut along them into
role objects, one slice at a time. The view subsystem lives in
``repro.views.ViewManager`` and the site only calls its hooks. The
LockManager role has moved out whole: ``repro.locking.manager.LockManager``
keeps the lock table, the wait-for graph and the wait policy (the waiter
registry, turns, the pairs undo gave back and the grant-order walk), and
the site only delivers the wakes it decides on. This guard,
the sibling of ``test_config_census.py``, pins the number of methods the
class defines, so that the next slice moved out, or a method drifting back
in, is a visible diff here.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.core.site import DTXSite

#: Methods that were moved to the ViewManager; the site keeps hook calls.
VIEW_METHODS = (
    "_try_view_read", "_handle_view_read", "_view_fetch", "_hydrate_view_proc",
    "_handle_view_delta", "_view_push_loop", "host_view", "hydrate_view",
)


#: The wait policy's state, private to ``repro.locking``.
WAIT_POLICY_STATE = ("_waiters", "_turns", "_given_back", "_held")


def site_methods() -> list[str]:
    return [
        name
        for name, value in vars(DTXSite).items()
        if inspect.isfunction(value) or isinstance(value, (property, staticmethod, classmethod))
    ]


def test_site_method_count_is_pinned():
    methods = site_methods()
    assert len(methods) == 91, sorted(methods)


def test_view_subsystem_stays_out_of_the_site():
    assert not set(VIEW_METHODS) & set(site_methods())


def test_the_wait_policy_stays_in_the_lock_manager():
    src = Path(repro.__file__).resolve().parent
    readers = sorted(
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if path.parent.name != "locking"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in WAIT_POLICY_STATE
    )
    assert readers == []
    assert "_notify_lock_release" not in site_methods()

"""One unification step in a new store, seeded as `oracle_agrees` seeds one."""

from rowml.syntax import FreshVars, scan_rows
from rowml.unify import Subst, unify


def solve(t1, t2, fresh=None, run=unify):
    """`run(t1, t2, fresh, store)` in a new store that `scan_rows` seeds
    with the labels each row variable of the inputs lacks.  With no
    `fresh`, the supply starts above every variable of the inputs.  The
    store that comes back is triangular: read it through `Subst.apply`."""
    store = Subst()
    top = max(scan_rows(t1, store.lacks), scan_rows(t2, store.lacks))
    return run(t1, t2, FreshVars(top + 1) if fresh is None else fresh, store)

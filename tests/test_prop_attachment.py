"""Property-based tests for the attachment closure algebra."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.attachment import AttachmentManager, AttachmentMode
from repro.runtime.objects import DistributedObject
from repro.sim.kernel import Environment

N_OBJECTS = 10

#: Random edge lists: (src, dst, context) with src != dst.
edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_OBJECTS - 1),
        st.integers(min_value=0, max_value=N_OBJECTS - 1),
        st.integers(min_value=1, max_value=3),
    ).filter(lambda e: e[0] != e[1]),
    max_size=40,
)


def build(mode, edge_list):
    env = Environment()
    objs = [
        DistributedObject(env, object_id=i, node_id=0) for i in range(N_OBJECTS)
    ]
    mgr = AttachmentManager(mode)
    for src, dst, ctx in edge_list:
        mgr.attach(objs[src], objs[dst], context=ctx)
    return mgr, objs


@given(edges)
def test_closure_contains_self(edge_list):
    mgr, objs = build(AttachmentMode.UNRESTRICTED, edge_list)
    for obj in objs:
        assert obj in mgr.closure(obj)


@given(edges)
def test_closure_is_symmetric_membership(edge_list):
    """b in closure(a) iff a in closure(b)."""
    mgr, objs = build(AttachmentMode.UNRESTRICTED, edge_list)
    for a in objs:
        for b in mgr.closure(a):
            assert a in mgr.closure(b)


@given(edges)
def test_closure_is_idempotent(edge_list):
    """closure(x) is identical for every member x of the closure."""
    mgr, objs = build(AttachmentMode.UNRESTRICTED, edge_list)
    for obj in objs:
        members = mgr.closure(obj)
        for member in members:
            assert mgr.closure(member) == members


@given(edges, st.integers(min_value=1, max_value=3))
def test_scoped_closure_subset_of_unrestricted(edge_list, context):
    mgr, objs = build(AttachmentMode.A_TRANSITIVE, edge_list)
    for obj in objs:
        scoped = set(o.object_id for o in mgr.closure(obj, context=context))
        full = set(o.object_id for o in mgr.closure(obj))
        assert scoped <= full


@given(edges)
def test_components_partition_attached_objects(edge_list):
    mgr, objs = build(AttachmentMode.UNRESTRICTED, edge_list)
    comps = mgr.components()
    seen = [o.object_id for comp in comps for o in comp]
    assert len(seen) == len(set(seen))  # disjoint
    for comp in comps:
        assert len(comp) >= 2  # singletons are not components


@given(edges)
def test_exclusive_mode_bounds_out_degree(edge_list):
    env = Environment()
    objs = [
        DistributedObject(env, object_id=i, node_id=0) for i in range(N_OBJECTS)
    ]
    mgr = AttachmentManager(AttachmentMode.EXCLUSIVE)
    accepted = {}  # src -> set of distinct partners actually attached
    for src, dst, ctx in edge_list:
        if mgr.attach(objs[src], objs[dst], context=ctx):
            accepted.setdefault(src, set()).add(dst)
    # Every object got attached *to* at most one distinct partner.
    for src, partners in accepted.items():
        assert len(partners) <= 1


@given(edges)
def test_exclusive_closures_never_larger_than_unrestricted(edge_list):
    exclusive, objs_e = build(AttachmentMode.EXCLUSIVE, edge_list)
    unrestricted, objs_u = build(AttachmentMode.UNRESTRICTED, edge_list)
    for i in range(N_OBJECTS):
        ce = {o.object_id for o in exclusive.closure(objs_e[i])}
        cu = {o.object_id for o in unrestricted.closure(objs_u[i])}
        assert ce <= cu


@given(edges)
def test_detach_all_isolates(edge_list):
    mgr, objs = build(AttachmentMode.UNRESTRICTED, edge_list)
    victim = objs[0]
    mgr.detach_all(victim)
    assert mgr.closure(victim) == [victim]
    for obj in objs[1:]:
        assert victim not in mgr.closure(obj)


def reference_closure(mgr, obj, context=None):
    """The unmemoized breadth-first closure, over the manager's edges."""
    restrict = context is not None and mgr.mode is AttachmentMode.A_TRANSITIVE
    seen = {obj.object_id}
    frontier = [obj.object_id]
    while frontier:
        current = frontier.pop(0)
        for nbr, ctx in mgr._adjacency.get(current, ()):
            if restrict and ctx != context:
                continue
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return sorted(seen)


object_ids = st.integers(min_value=0, max_value=N_OBJECTS - 1)
contexts = st.one_of(st.none(), st.integers(min_value=1, max_value=3))

#: Random edit scripts; a ``query`` reads closures between mutations so
#: the memo is populated when the next mutation has to invalidate it.
edits = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), object_ids, object_ids, contexts),
        st.tuples(st.just("detach"), object_ids, object_ids, contexts),
        st.tuples(st.just("detach_all"), object_ids),
        st.tuples(st.just("query"), object_ids, contexts),
    ),
    max_size=60,
)


@given(st.sampled_from(list(AttachmentMode)), edits)
def test_memoized_closure_equals_reference_under_edits(mode, script):
    mgr, objs = build(mode, [])

    def check(obj, context):
        first = mgr.closure(obj, context=context)
        assert [o.object_id for o in first] == reference_closure(
            mgr, obj, context
        )
        # A hit returns the same members in a list of the caller's own.
        again = mgr.closure(obj, context=context)
        assert again == first and again is not first
        first.clear()
        assert mgr.closure(obj, context=context) == again

    for step in script:
        if step[0] == "attach" and step[1] != step[2]:
            mgr.attach(objs[step[1]], objs[step[2]], context=step[3])
        elif step[0] == "detach":
            mgr.detach(objs[step[1]], objs[step[2]], context=step[3])
        elif step[0] == "detach_all":
            mgr.detach_all(objs[step[1]])
        elif step[0] == "query":
            check(objs[step[1]], step[2])
    for obj in objs:
        for context in (None, 1, 2, 3):
            check(obj, context)

import functools
import importlib
import pkgutil
import signal

import pytest
from sympy.combinatorics import Permutation
from sympy.combinatorics import PermutationGroup as SympyGroup

import consistentwalks as cw
from consistentwalks import perms
from consistentwalks.perms import PermutationGroup


TEST_TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail any test that runs over ``TEST_TIME_LIMIT_S`` instead of hanging.

    A search that stops terminating then fails its test with a traceback
    where it was interrupted.  SIGALRM, so the limit holds on POSIX only.
    """
    def expired(signum, frame):
        pytest.fail(f"test ran over its time limit of {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session", autouse=True)
def group_answers_rederived():
    """Re-derive every group, coset and transporter answer the suite builds.

    The library computes each answer once.  Here, for the whole session,
    every ``PermutationGroup`` is checked to list its elements in strictly
    increasing order, which the library trusts, and to be closed under
    inverses: a group built by ``close`` when it is built, and any other
    group when its elements are expanded, whose count must then be its
    order.  No check wraps the constructor, since reading the elements of
    every group it builds would expand every chain in the suite.  Every
    coset answer's lift must map ``src`` onto ``dst``, every generator of
    its stabilizer must fix ``src``, and the stabilizer must be the very group
    ``pointwise_stabilizer(src)`` returns, whose levels
    ``stabilizer_answers_rederived`` re-derives.  Every transporter answer
    must map ``src`` onto ``dst``, and every nonempty one must be the coset
    G_(src) * g0 of its least element g0, G_(src) read as the transporter
    of ``src`` onto itself, where the descent through ``src`` ends with no
    lift to multiply.  That covers every shunt set, and with it
    every successor set: apply_perm(h * g0, w) == apply_perm(g0,
    apply_perm(h, w)).  The methods are wrapped on the class itself, so
    every caller in every module goes through the checks.
    """
    close, expand = PermutationGroup.close.__func__, PermutationGroup._expand
    transporter, coset = PermutationGroup.transporter, PermutationGroup.coset

    def check_elements(group, elements):
        assert all(a < b for a, b in zip(elements, elements[1:])), (
            f"elements of {group!r} are not in strictly increasing order")
        members = set(elements)
        for p in elements:
            assert p.inverse() in members, f"inverse of {p} missing from {group!r}"

    @functools.wraps(close)
    def checked_close(cls, *args, **kwargs):
        group = close(cls, *args, **kwargs)
        check_elements(group, group.elements)
        return group

    @functools.wraps(expand)
    def checked_expand(self):
        elements = expand(self)
        check_elements(self, elements)
        assert len(elements) == self.order, f"{self!r} expanded to {len(elements)} elements"
        return elements

    @functools.wraps(coset)
    def checked_coset(self, src, dst):
        found = coset(self, src, dst)
        if found is not None:
            lift, stabilizer = found
            assert all(lift[a] == b for a, b in zip(src, dst)), (
                f"coset {tuple(src)} -> {tuple(dst)} has a lift that does not transport")
            assert all(h[a] == a for h in stabilizer.generators for a in src), (
                f"a stabilizer generator of coset {tuple(src)} -> {tuple(dst)} moves src")
            # pointwise_stabilizer asks coset(src, src), so only other answers compare
            if tuple(src) != tuple(dst):
                assert stabilizer is self.pointwise_stabilizer(src), (
                    f"coset {tuple(src)} -> {tuple(dst)} is not over G_{tuple(src)}")
        return found

    @functools.wraps(transporter)
    def checked_transporter(self, src, dst):
        found = transporter(self, src, dst)
        pairs = list(zip(src, dst))
        assert all(g[a] == b for g in found for a, b in pairs), (
            f"transporter {tuple(src)} -> {tuple(dst)} returned a non-transporting element")
        if found and tuple(src) != tuple(dst):
            g0 = found[0]
            assert {h * g0 for h in transporter(self, src, src)} == set(found), (
                f"transporter {tuple(src)} -> {tuple(dst)} is not a coset of G_{tuple(src)}")
        return found

    PermutationGroup.close = classmethod(checked_close)
    PermutationGroup._expand = checked_expand
    PermutationGroup.transporter = checked_transporter
    PermutationGroup.coset = checked_coset
    try:
        yield
    finally:
        PermutationGroup.close = classmethod(close)
        PermutationGroup._expand = expand
        PermutationGroup.transporter = transporter
        PermutationGroup.coset = coset


@pytest.fixture(scope="session", autouse=True)
def stabilizer_answers_rederived():
    """Re-derive every answer of ``perms.point_stabilizer`` the suite builds.

    For generators of H and a point b, the transversal must map b onto each
    of its keys, and its keys must be closed under the generators, so they
    are b's orbit.  Each stabilizer generator must fix b and lie in H, and
    the generators must generate a group of order |H| / |orbit|, so they
    generate all of H_b.  Orders and membership come from sympy's
    Schreier–Sims, which shares no code with the library: the library's own
    ``generated_order`` is a product of basic orbit lengths down
    ``point_stabilizer`` itself, so it cannot check it.  The function is
    rebound in every library module that imported it by name, ``perms``
    included, so ``generated_order`` and ``least_in_coset`` are checked at
    every level they descend.  ``PermutationGroup.orbit_stabilizer`` reads a
    chain's base point without this function and has its own test in
    ``tests/test_perms.py``.
    """
    original = perms.point_stabilizer
    groups: dict[tuple, SympyGroup] = {}

    def sympy_group(degree, generators):
        key = (degree, *generators)
        if key not in groups:
            groups[key] = SympyGroup([Permutation(list(g), size=degree) for g in generators]
                                     or [Permutation(list(range(degree)))])
        return groups[key]

    @functools.wraps(original)
    def checked(degree, generators, point):
        trans, stabilizer = original(degree, generators, point)
        assert all(u[point] == b for b, u in trans.items()), (
            f"transversal of {point} maps it elsewhere")
        assert all(s[b] in trans for b in trans for s in generators), (
            f"transversal keys of {point} are not closed under the generators")
        assert all(h[point] == point for h in stabilizer), (
            f"a stabilizer generator moves {point}")
        whole = sympy_group(degree, generators)
        assert all(whole.contains(Permutation(list(h), size=degree)) for h in stabilizer), (
            f"a stabilizer generator of {point} lies outside the group")
        assert sympy_group(degree, stabilizer).order() * len(trans) == whole.order(), (
            f"the stabilizer generators of {point} generate too small a group")
        return trans, stabilizer

    modules = [importlib.import_module(f"consistentwalks.{m.name}")
               for m in pkgutil.iter_modules(cw.__path__) if not m.name.startswith("_")]
    rebound = [(module, name) for module in modules
               for name, value in vars(module).items() if value is original]
    for module, name in rebound:
        setattr(module, name, checked)
    try:
        yield
    finally:
        for module, name in rebound:
            setattr(module, name, original)


@pytest.fixture
def group_queries(monkeypatch):
    """``record(group, call)`` -> (``call()``, the coset, transporter and
    pointwise_stabilizer queries it made on ``group``).

    A query is recorded as (method name, *its point tuples).  Queries
    nested inside a recorded one, and queries on other groups, do not count.
    """
    calls, depth, watched = [], [0], [None]

    def counting(method_name):
        method = getattr(PermutationGroup, method_name)

        def counted(self, *points):
            if depth[0] == 0 and self is watched[0]:
                calls.append((method_name, *map(tuple, points)))
            depth[0] += 1
            try:
                return method(self, *points)
            finally:
                depth[0] -= 1
        return counted

    for method_name in ("coset", "transporter", "pointwise_stabilizer"):
        monkeypatch.setattr(PermutationGroup, method_name, counting(method_name))

    def record(group, call):
        calls.clear()
        watched[0] = group
        try:
            return call(), list(calls)
        finally:
            watched[0] = None
    return record


def build_family_graphs() -> dict[str, cw.Graph]:
    """The eight graphs every cross-module test runs against."""
    graphs = {
        "c6": cw.named_graph("cycle:6"),
        "k4": cw.named_graph("complete:4"),
        "q3": cw.named_graph("hypercube:3"),
        "petersen": cw.named_graph("petersen"),
        "k5": cw.named_graph("complete:5"),
        "q4": cw.named_graph("hypercube:4"),
    }
    graphs["c4k2"] = cw.lex_blowup(cw.named_graph("cycle:4"), 2)
    graphs["q3k2"] = cw.lex_blowup(cw.named_graph("hypercube:3"), 2)
    return graphs


FAMILY_VALENCE = {"c6": 2, "k4": 3, "q3": 3, "petersen": 3,
                  "k5": 4, "q4": 4, "c4k2": 4, "q3k2": 6}


@pytest.fixture(scope="session")
def family():
    """name -> (graph, full automorphism group) for the test family."""
    return {name: (graph, cw.automorphism_group(graph))
            for name, graph in build_family_graphs().items()}


@pytest.fixture(scope="session")
def censuses(family):
    """name -> CycleOrbitTable under the full automorphism group."""
    return {name: cw.consistent_cycle_orbits(group, graph)
            for name, (graph, group) in family.items()}


@pytest.fixture(scope="session")
def c4_wreath():
    """C4 blow-up with the fiber-wreath subgroup (local group dihedral)."""
    base = cw.named_graph("cycle:4")
    blowup = cw.lex_blowup(base, 2)
    gens = cw.wreath_group_generators(base, cw.automorphism_group(base), 2)
    return blowup, cw.PermutationGroup.close(gens)

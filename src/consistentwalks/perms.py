"""Finite permutation group engine.

A permutation is the ``bytes`` of its images, so its degree is at most
256, and acts on the right: ``(g*h)[v] == h[g[v]]``.  A product is one C
call, ``g.translate(h + PAD[len(h):])``, in :meth:`Perm.__mul__` or, where
a loop reuses one right factor, with that factor's table built once; a
point tuple held as bytes moves the same way.  Point and tuple orbits are
a breadth-first closure over a group's one generator tuple
(:func:`tuple_orbit_under` runs it over any generators, so an orbit under
a generated group needs no closure of that group).

A group is its generators, a stabilizer chain down its least moved
points and its order.  Every stabilizer query walks one descent (Sims
1970; Seress, *Permutation Group Algorithms*, 2003, ch. 4-5).
:func:`point_stabilizer` gives, for any generators and a point, the
Schreier-tree transversal of the point's orbit and generators of its
stabilizer, the Schreier generators kept short by Sims' filter.  A group
keeps each point stabilizer it builds this way, as a group of its own
(:meth:`PermutationGroup._stabilizer`, the only route to a point
stabilizer), and answers :meth:`coset`, one element and its stabilizer,
``orbit_stabilizer`` and ``least_image`` by walking the points down those
kept stabilizers.  The chain is built only when a query needs it: its
first base point beta is the least point the generators move, and it goes
on in the kept G_beta.  The automorphism group
(:meth:`PermutationGroup.from_strong_generators`) comes with its chain
already built from the search's strong generators.  The order is a
product of orbit lengths, kept once known and handed to each stabilizer
built after that; membership is a sift; the elements are expanded from
the transversals and sorted.  :func:`generated_order` reads the chain of
the group its generators generate.  One greedy step down the descent
(:func:`_least_lift`) answers both :meth:`PermutationGroup.least_in_coset`,
over the points 0, 1, ..., which is the group's chain, and
:meth:`PermutationGroup.least_image`, over the tuple's points.

:meth:`PermutationGroup.close` runs Dimino's closure, which grows the
subgroup generated so far a whole right coset at a time, and keeps it,
sorted, as the group's elements.  No other module reads how a group is
stored.  Everything here is immutable and safe to share: kept
stabilizers, orders and expanded elements are caches of immutable data,
and two racing builds store equal values.

Each answer is computed once.  A closure or an expansion is trusted to be
a group in lexicographic order, and a coset answer is not re-derived; the
test suite checks both for every group and query it builds
(``tests/conftest.py``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

from .errors import (
    BadParameters,
    CapExceeded,
    DegreeMismatch,
    InvalidPermutation,
)

DEFAULT_GROUP_CAP = 2_000_000
MIN_GENERATING_SEARCH_CAP = 4
DEGREE_LIMIT = 256
PAD = bytes(range(DEGREE_LIMIT))


class Perm(bytes):
    """A permutation of {0..n-1} stored as the bytes of its images, n <= 256.

    ``p[v]`` is the image of point ``v``; ``p * q`` applies ``p`` first.
    Construction does not validate; use :meth:`from_images` for raw input.
    Comparison is lexicographic on the images, as for tuples.
    """

    __slots__ = ()

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        if degree > DEGREE_LIMIT:
            raise CapExceeded(f"permutation degree {degree} exceeds "
                              f"the limit of {DEGREE_LIMIT}")
        return cls(PAD[:degree])

    @classmethod
    def from_images(cls, images: Iterable[int]) -> "Perm":
        p = [int(i) for i in images]
        if sorted(p) != list(cls.identity(len(p))):
            raise InvalidPermutation(f"not a bijection on 0..{len(p) - 1}: {p}")
        return cls(p)

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                images[a] = b
        return cls.from_images(images)

    @property
    def degree(self) -> int:
        return len(self)

    def __mul__(self, other):  # type: ignore[override]
        if len(self) != len(other):
            raise DegreeMismatch(f"degrees {len(self)} and {len(other)} differ")
        return Perm(self.translate(_table(other)))

    def inverse(self) -> "Perm":
        # the table sending each image p[v] back to v
        return Perm(bytes.maketrans(self, PAD[:len(self)])[:len(self)])

    def is_identity(self) -> bool:
        return self == PAD[:len(self)]

    def order(self) -> int:
        k, q = 1, self
        while not q.is_identity():
            q = q * self
            k += 1
        return k

    def cycle_string(self) -> str:
        seen, parts = set(), []
        for v in range(len(self)):
            if v in seen or self[v] == v:
                continue
            cyc, w = [v], self[v]
            while w != v:
                seen.add(w)
                cyc.append(w)
                w = self[w]
            parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) or "()"

    def __repr__(self) -> str:
        return f"Perm{tuple(self)!r}"
    __str__ = __repr__  # bytes' own str prints b'...'


def _table(q: bytes) -> bytes:
    """``q`` padded to a translation table: ``x.translate(_table(q))`` is
    ``bytes(q[i] for i in x)``.  A loop with one right factor builds it once."""
    return q + PAD[len(q):]


def _as_perms(generators: Iterable[Sequence[int]]) -> list[Perm]:
    return [g if isinstance(g, Perm) else Perm.from_images(g) for g in generators]


def _closure(start: bytes, gens: Sequence[Perm], limit: float = math.inf) -> set[bytes]:
    """Breadth-first orbit of the point tuple ``start``, held as bytes, under
    x -> x^g for g in ``gens``: each image is one ``translate``, with each
    generator's table built once.  Returns early once the orbit holds more
    than ``limit`` tuples.
    """
    tables = [_table(g) for g in gens]
    seen, frontier = {start}, [start]
    while frontier:
        new = []
        for x in frontier:
            for t in tables:
                y = x.translate(t)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > limit:
                        return seen
                    new.append(y)
        frontier = new
    return seen


def _check_points(degree: int, points: Iterable[int]) -> None:
    for p in points:
        if not 0 <= p < degree:
            raise BadParameters(f"point {p} outside degree {degree}")


def tuple_orbit_under(generators: Sequence[Perm], tup: Sequence[int],
                      cap: int | None = None) -> set[tuple[int, ...]]:
    """Orbit of a point tuple under the group ``generators`` generate,
    coordinatewise, without closing that group.

    Raises :class:`CapExceeded` once the orbit holds over ``cap`` tuples, and
    :class:`BadParameters` for a point outside the generators' degree.
    """
    _check_points(len(generators[0]) if generators else DEGREE_LIMIT, tup)
    limit = math.inf if cap is None else cap
    seen = _closure(bytes(tup), generators, limit)
    if len(seen) > limit:
        raise CapExceeded(f"tuple orbit reached {len(seen)} tuples, "
                          f"over the cap of {cap}")
    return {tuple(x) for x in seen}


def _transversal(degree: int, point: int, gens: Sequence[Perm]) -> dict[int, Perm]:
    """Orbit point b of ``point`` under ``gens`` -> one product u of the
    generators with ``u[point] == b``, the identity for ``point`` itself.

    Breadth first over the orbit, each new point costing one product: the
    Schreier tree of the orbit, its branches read as permutations.
    """
    trans = {point: Perm.identity(degree)}
    frontier = [point]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = g[x]
                if y not in trans:
                    trans[y] = trans[x] * g
                    new.append(y)
        frontier = new
    return trans


def point_stabilizer(degree: int, generators: Sequence[Perm],
                     point: int) -> tuple[dict[int, Perm], list[Perm]]:
    """The transversal of ``point``'s orbit under H = <generators>, as
    :func:`_transversal` gives it, and generators of the stabilizer H_point.

    The Schreier generators u_b * s * u_(s[b])^-1, for b in the orbit and s
    a generator, generate H_point (Schreier's lemma).  Sims' filter keeps at
    most one of them per (first moved point i, image of i): a generator
    whose pair is taken is multiplied by the inverse of the kept one, which
    fixes i and every point below it, and sifted on, so the kept ones still
    generate H_point and number at most degree * (degree - 1) / 2.  A first
    moved point is read off one integer XOR of the bytes with the identity's.
    """
    trans = _transversal(degree, point, generators)
    back = {b: _table(u.inverse()) for b, u in trans.items()}
    tables = [(s, _table(s)) for s in generators]
    identity = int.from_bytes(PAD[:degree], "big")
    kept: dict[tuple[int, int], tuple[Perm, bytes]] = {}
    for b, u in trans.items():
        for s, t in tables:
            h = u.translate(t).translate(back[s[b]])
            while moved := int.from_bytes(h, "big") ^ identity:
                i = degree - 1 - (moved.bit_length() - 1) // 8
                slot = kept.get((i, h[i]))
                if slot is None:
                    h = Perm(h)
                    kept[i, h[i]] = (h, _table(h.inverse()))
                    break
                h = h.translate(slot[1])
    return trans, [h for h, _ in kept.values()]


def _dimino(degree: int, candidates: Iterable[Perm],
            limit: float = math.inf) -> tuple[set[bytes], list[Perm]]:
    """Dimino's closure: the group generated by ``candidates``, a right coset at a time.

    Walks ``candidates`` in order and skips each one already in the
    subgroup H generated so far.  Any other p is kept, and H grows to
    <H, p>: first the coset H*p, then H*y for each y = x*g not yet seen,
    where x runs over the new coset representatives and g over the kept
    candidates.  A new coset costs |H| products and a representative one
    product per kept candidate.  Returns the element set, whose members
    may be plain ``bytes``, and the kept candidates, early once the set
    holds more than ``limit`` elements.
    """
    seen = {Perm.identity(degree)}
    kept: list[Perm] = []
    for p in candidates:
        if p in seen:
            continue
        kept.append(p)
        # h * y is h.translate(t) for y's table t, built once per coset
        subgroup = list(seen)
        t = _table(p)
        seen.update(h.translate(t) for h in subgroup)
        reps = [p]
        for x in reps:  # grows while it is walked
            if len(seen) > limit:
                return seen, kept
            for g in kept:
                y = x * g
                if y not in seen:
                    t = _table(y)
                    seen.update(h.translate(t) for h in subgroup)
                    reps.append(y)
    return seen, kept


def _least_moved(degree: int, generators: Sequence[Perm]) -> int:
    """The least point some generator moves, ``degree`` if none: the first
    differing byte of one integer OR of each generator XOR the identity."""
    identity = int.from_bytes(PAD[:degree], "big")
    moved = 0
    for h in generators:
        moved |= int.from_bytes(h, "big") ^ identity
    return degree - 1 - (moved.bit_length() - 1) // 8


def generated_order(degree: int, generators: Sequence[Perm]) -> int:
    """|H| for H = <generators>: the product of its basic orbit lengths
    down its chain of point stabilizers, so no group is closed."""
    return PermutationGroup(degree, generators).order


def least_in_coset(generators: Sequence[Perm], g: Perm) -> Perm:
    """The lexicographically least element of the coset <generators> * g,
    for a caller that holds generators and no group: a fresh group's
    :meth:`PermutationGroup.least_in_coset`."""
    return PermutationGroup(len(g), generators).least_in_coset(g)


def _least_lift(group: "PermutationGroup", points: Iterable[int], a: Perm) -> Perm:
    """The element of the coset group * a whose images of ``points``, in
    order, are least, greedy down the descent through them.

    With H the stabilizer of the points handled so far, every element of
    H * a agrees with a on them, and the least image of the next point p
    is the least a-image of p's orbit under H, reached by u_b * a for the
    transversal element u_b sending p to that b.  The elements of the
    coset with that image at p are H_p * u_b * a, so the search goes on
    in H_p and stops once that is trivial.  Every step is one
    :meth:`PermutationGroup._stabilizer`, kept on the group it descends.
    """
    for p in points:
        if group._base == group.degree:
            break
        trans, group = group._stabilizer(p)
        a = trans[min(trans, key=a.__getitem__)] * a
    return a


class PermutationGroup:
    """A finite permutation group: its generators, its stabilizer chain and
    its order.

    The chain is the descent at the base point beta, the least point the
    generators move: the transversal of beta's orbit and the kept
    stabilizer G_beta, itself such a group, built when a query first needs
    it.  ``elements`` is the group in lexicographic order, so every
    iteration order downstream is deterministic and the identity comes
    first; :meth:`close` keeps its closure as them, and any other group
    expands them from the chain on first read.
    """

    __slots__ = ("degree", "_generators", "_base", "_order", "_elements", "_stabilizers")

    def __init__(self, degree: int, generators: Iterable[Perm]):
        self.degree = degree
        self._generators: tuple[Perm, ...] = tuple(generators)
        # the chain's base point, degree for the trivial group
        self._base = _least_moved(degree, self._generators)
        self._order: int | None = 1 if self._base == degree else None
        self._elements: tuple[Perm, ...] | None = None
        # point a -> (a's orbit point b -> u with u[a] == b, the stabilizer G_a)
        self._stabilizers: dict[int, tuple[dict[int, Perm], PermutationGroup]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def close(cls, generators, degree: int | None = None,
              cap: int = DEFAULT_GROUP_CAP) -> "PermutationGroup":
        """The group generated by ``generators``, closed coset by coset.

        Its generators are those the closure kept, and it keeps the closure,
        sorted, as its elements and their count as its order.  Raises
        :class:`CapExceeded` once the closure holds over ``cap`` elements.
        """
        gens = _as_perms(generators)
        if cap < 1:
            raise BadParameters("cap must be >= 1")
        if degree is None:
            if not gens:
                raise BadParameters("degree required for an empty generator list")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
        elements, kept = _dimino(degree, gens, cap)
        if len(elements) > cap:
            raise CapExceeded(f"group closure reached {len(elements)} elements, "
                              f"over the cap of {cap}")
        group = cls(degree, kept)
        group._elements = tuple(sorted(map(Perm, elements)))
        group._order = len(elements)
        return group

    @classmethod
    def from_strong_generators(cls, degree: int,
                               generators: Sequence[Perm]) -> "PermutationGroup":
        """The group of strong generators for the base 0..degree-1, as a
        stabilizer chain; the generators stay the group's own.

        The generators moving no point below i generate G_i, the stabilizer
        of 0..i-1 (Sims 1970).  So every generator fixes each point below
        beta, the least point any of them moves, and those fixing beta
        generate G_beta, built the same way.  Nothing is expanded: the
        group keeps the Schreier-tree transversal of beta's orbit and
        G_beta as its stabilizer at beta, and ``order`` is the orbit length
        times |G_beta|.
        """
        group = cls(degree, generators)
        beta = group._base
        if beta < degree:
            rest = [g for g in group._generators if g[beta] == beta]
            group._stabilizers[beta] = (_transversal(degree, beta, group._generators),
                                        cls.from_strong_generators(degree, rest))
        return group

    def _stabilizer(self, point: int) -> tuple[dict[int, Perm], "PermutationGroup"]:
        """The descent's one step: the transversal of ``point``'s orbit and
        the stabilizer G_point, as :func:`point_stabilizer` gives them from
        the generators, kept on the group from the first query on.  A group
        whose order is known hands G_point its order, |G| / |point^G|.

        At a chain's base point this is the chain's own level.  A point
        every generator fixes has the group itself as its stabilizer.
        """
        level = self._stabilizers.get(point)
        if level is None:
            gens = self._generators
            if all(g[point] == point for g in gens):
                return {point: self.identity}, self
            trans, generators = point_stabilizer(self.degree, gens, point)
            stabilizer = PermutationGroup(self.degree, generators)
            if self._order is not None:
                stabilizer._order = self._order // len(trans)
            level = self._stabilizers[point] = (trans, stabilizer)
        return level

    def _expand(self) -> tuple[Perm, ...]:
        """The elements in lexicographic order, from the chain's transversals.

        Every element of a chain group is h*u for one h in G_beta and one u
        in the transversal, so every element is u_k * ... * u_1, one
        transversal element per level: one product per element of each
        level, and one sort of the bytes at the end.
        """
        elements = [PAD[:self.degree]]
        group = self
        while group._base < group.degree:
            trans, group = group._stabilizer(group._base)
            elements = [u.translate(t) for r in elements for t in [_table(r)]
                        for u in trans.values()]
        return tuple(sorted(map(Perm, elements)))

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "generators": [list(g) for g in self.generators]}

    # -- basic queries -----------------------------------------------------

    @property
    def elements(self) -> tuple[Perm, ...]:
        if self._elements is None:
            self._elements = self._expand()
        return self._elements

    @property
    def order(self) -> int:
        """|G|, the orbit length at the base point times |G_beta|, kept."""
        if self._order is None:
            trans, stabilizer = self._stabilizer(self._base)
            self._order = len(trans) * stabilizer.order
        return self._order

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    @property
    def generators(self) -> tuple[Perm, ...]:
        return self._generators

    def __contains__(self, p) -> bool:
        """A sift down the chain: p lies in the group iff u = u_(p[beta])
        exists and p * u^-1 lies in G_beta, and in the trivial group iff it
        is the identity."""
        if sorted(p) != list(self.identity):  # no permutation of the degree
            return False
        group, p = self, Perm(p)
        while group._base < group.degree:
            beta = group._base
            trans, group = group._stabilizer(beta)
            u = trans.get(p[beta])
            if u is None:
                return False
            p = p * u.inverse()
        return p.is_identity()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"<PermutationGroup degree={self.degree} order={self.order}>"

    def small_generating_set(self) -> tuple[Perm, ...]:
        """A short (greedy, not necessarily minimal) generating sequence.

        Each element, in lexicographic order, that lies outside the subgroup
        H generated so far joins the sequence, and H grows to <H, p> coset
        by coset (Dimino's closure) until it is the whole group.  No library
        path calls it; the tests and ``perfbench/tracer.py`` call it by name.
        """
        return tuple(_dimino(self.degree, self.elements, self.order - 1)[1])

    # -- actions -----------------------------------------------------------

    def orbit(self, point: int) -> frozenset[int]:
        """Smallest generator-closed set of points containing ``point``."""
        return frozenset(b for (b,) in self.tuple_orbit((point,)))

    def tuple_orbit(self, tup: Sequence[int], cap: int | None = None) -> set[tuple[int, ...]]:
        """Orbit of a point tuple under the coordinatewise action."""
        _check_points(self.degree, tup)
        return tuple_orbit_under(self.generators, tup, cap)

    def coset(self, src: Sequence[int], dst: Sequence[int]
              ) -> tuple[Perm, "PermutationGroup"] | None:
        """The elements mapping ``src`` onto ``dst`` pointwise, G_(src) * a,
        as (a, G_(src)), or None.  Down the descent, with H the stabilizer
        of the points handled so far, the next point s goes to d iff some u
        in H sends s to a^-1[d]: the transversal's u lifts a to u * a, and H
        shrinks to H_s.  No element is listed."""
        if len(src) != len(dst):
            raise BadParameters(f"point tuples {tuple(src)} and {tuple(dst)} differ in length")
        _check_points(self.degree, itertools.chain(src, dst))
        group, lift = self, self.identity
        for a, b in zip(src, dst):
            trans, group = group._stabilizer(a)
            u = trans.get(lift.inverse()[b])
            if u is None:
                return None
            lift = u * lift
        return lift, group

    def transporter(self, src: Sequence[int], dst: Sequence[int]) -> list[Perm]:
        """All elements mapping ``src`` onto ``dst`` pointwise, sorted: the
        :meth:`coset` expanded, which keeps the final stabilizer's elements."""
        found = self.coset(src, dst)
        if found is None:
            return []
        lift, group = found
        # h * lift for every h, one translate each with lift's table
        return sorted(map(Perm, map(bytes.translate, group.elements,
                                    itertools.repeat(_table(lift)))))

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermutationGroup":
        """Subgroup fixing every listed point, where the descent through
        them ends; the empty tuple gives the group itself, and a chain's
        base point beta gives the chain's own G_beta."""
        return self.coset(points, points)[1]

    def orbit_stabilizer(self, point: int) -> tuple[dict[int, Perm], list[Perm]]:
        """A copy of the transversal of ``point``'s orbit and the generators
        of its stabilizer, off the descent: at the base point beta of an
        automorphism group's chain, its own transversal and G_beta's strong
        generators."""
        _check_points(self.degree, (point,))
        trans, stabilizer = self._stabilizer(point)
        return dict(trans), list(stabilizer.generators)

    def least_in_coset(self, a: Perm) -> Perm:
        """The lexicographically least element of the coset G * a:
        :func:`_least_lift` over the points 0, 1, ..., which walks the
        group's own chain down its base points and keeps what it builds."""
        return _least_lift(self, range(self.degree), a)

    def least_image(self, tup: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically least image of a point tuple under the group.

        The images of the tuple under :func:`_least_lift`'s element of the
        group, greedy down the descent through the tuple's points.  Like
        ``transporter``, it keeps the stabilizer of each prefix on the
        group; the CLI asks it only of a group built for one command
        (``family_orbit_ids`` on the blow-up's automorphism group).
        """
        _check_points(self.degree, tup)
        a = _least_lift(self, tup, self.identity)
        return tuple(a[p] for p in tup)

    def is_transitive(self) -> bool:
        """True iff one orbit covers every point."""
        return len(self.orbit(0)) == self.degree

    def subgroup_equals(self, other: "PermutationGroup") -> bool:
        """True iff the element sets coincide: the orders agree and this
        group's generators lie in the other, so it is a subgroup of it."""
        if self.degree != other.degree:
            raise DegreeMismatch(f"degrees {self.degree} and {other.degree} differ")
        return self.order == other.order and all(g in other for g in self.generators)

    # -- generation --------------------------------------------------------

    def min_generating_size(self) -> int | None:
        """Exact size of a smallest generating set, or None if the cap was hit.

        Size 1 is decided by element orders, as the group is cyclic iff some
        element has order |G|; larger sizes search subsets of the full element
        set, up to MIN_GENERATING_SEARCH_CAP.
        """
        if self.order == 1:
            return 0
        nontrivial = self.elements[1:]  # the identity comes first
        if any(p.order() == self.order for p in nontrivial):
            return 1
        for size in range(2, MIN_GENERATING_SEARCH_CAP + 1):
            for combo in itertools.combinations(nontrivial, size):
                # the closure stops as soon as it fills the group
                if len(_dimino(self.degree, combo, self.order - 1)[0]) == self.order:
                    return size
        return None


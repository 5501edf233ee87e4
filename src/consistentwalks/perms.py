"""Finite permutation group engine.

A permutation is the ``bytes`` of its images, so its degree is at most
256, and acts on the right: ``(g*h)[v] == h[g[v]]``.  A product is one C
call, ``g.translate(h + PAD[len(h):])``, in :meth:`Perm.__mul__` or, where
a loop reuses one right factor, with that factor's table built once; a
point tuple held as bytes moves the same way.  A closed group is
materialized: Dimino's closure, which grows the subgroup generated so far a
whole right coset at a time, backs :meth:`PermutationGroup.close`, the
greedy generators and :meth:`PermutationGroup.min_generating_size`.  The
automorphism group is a stabilizer chain instead
(:meth:`PermutationGroup.from_strong_generators`): its first base point
beta, the Schreier-tree transversal of beta's orbit, and G_beta, itself a
chain.  Its order is a product of orbit lengths, membership is a sift, and
its elements are expanded from the transversals, already in lexicographic
order, only when something reads them.  Point and tuple orbits use a
breadth-first closure over the group's one generator tuple: those its
closure kept, the automorphism search's strong generators, or (for a
filtered subgroup) a greedy set computed on first read;
:func:`tuple_orbit_under` runs the same closure over any generators, so an
orbit under a generated group needs no closure of that group, and
:func:`generated_order` gives the order of a generated group from an orbit
and its point stabilizer.  :func:`point_stabilizer` gives, for any
generators and a point, the transversal of the point's orbit and
generators of its stabilizer: the Schreier generators, kept short by Sims'
filter, so a chain of point stabilizers is walked down by generators alone,
as the cycle census does, and no group is closed.
:meth:`PermutationGroup.least_image` finds a tuple's lexicographically least
image under the group with it, greedily, point by point.  No other module
reads how a group is stored.
Everything here is immutable and safe to share.

``PermutationGroup.transporter``, behind every stabilizer and shunt query,
answers a query whose first source point is a chain's base point beta
inside G_beta, through the transversal element sending beta to the first
target point, and reads no element of the whole group.  Any other query
uses a per-source-point bucket index: for a point ``a`` it holds the
element positions grouped by the image of ``a``, so a query starts from
the |G|/|orbit| elements sending ``src[0]`` to ``dst[0]`` instead of all
of G.  A point's row is built on its first query, at 2 bytes per element
(4 above 65,536 elements); a group that is never queried this way builds
none and, as a chain, expands no element.  Rows and expanded elements are
caches of immutable data: two racing builds store equal values.

Each answer is computed once.  A ``PermutationGroup`` trusts its element
list to be a group in lexicographic order, and a transporter answer is not
re-derived as a coset; the test suite checks both for every group and
query it builds (``tests/conftest.py``).
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
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


def tuple_orbit_under(generators: Sequence[Perm], tup: Sequence[int],
                      cap: int | None = None) -> set[tuple[int, ...]]:
    """Orbit of a point tuple under the group ``generators`` generate,
    coordinatewise, without closing that group.

    Raises :class:`CapExceeded` once the orbit holds over ``cap`` tuples, and
    :class:`BadParameters` for a point outside the generators' degree.
    """
    degree = len(generators[0]) if generators else DEGREE_LIMIT
    for p in tup:
        if not 0 <= p < degree:
            raise BadParameters(f"point {p} outside degree {degree}")
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


def generated_order(degree: int, generators: Sequence[Perm]) -> int:
    """|H| for H = <generators>, as |0^H| * |H_0| (orbit–stabilizer).

    H_0 is closed by Dimino's closure from the Schreier generators
    u_x * s * u_(s[x])^-1, for x in the orbit and s a generator, where u is
    the orbit's transversal (Schreier's lemma), so H itself is never built.
    The closure is as large as H_0: a caller bounds it by knowing H to lie
    in a group whose point stabilizer G_0 it can afford.
    """
    trans = _transversal(degree, 0, generators)
    inverses = {b: u.inverse() for b, u in trans.items()}
    schreier = (trans[x] * s * inverses[s[x]] for x in trans for s in generators)
    return len(trans) * len(_dimino(degree, schreier)[0])


class PermutationGroup:
    """A finite permutation group, materialized or a stabilizer chain.

    ``elements`` is a group in lexicographic order, so every iteration
    order downstream is deterministic and the identity comes first.  A
    group built by the constructor holds them from the start: it checks
    only that the identity comes first, in O(1), not order, closure or
    inverses, and every caller passes a sorted group by construction, a
    Dimino closure sorted once (:meth:`close`) or the sorted transporter
    answer of a group fixing given points (:meth:`pointwise_stabilizer`).
    Membership is then a bisection.

    A chain (:meth:`from_strong_generators`) holds a base point beta, the
    transversal of beta's orbit and G_beta, and expands its elements on
    first read.  Its order, its membership test and every query whose
    first source point is beta go down the chain instead.
    """

    __slots__ = ("degree", "_elements", "_generators", "_index", "_chain")

    def __init__(self, degree: int, elements: Iterable[Perm], generators=None):
        self.degree = degree
        self._elements: tuple[Perm, ...] | None = tuple(elements)
        self._generators = tuple(generators) if generators is not None else None
        # source point -> (element positions grouped by image, bucket offsets)
        self._index: dict[int, tuple[array, list[int]]] = {}
        # (beta, beta's orbit point b -> u with u[beta] == b, G_beta), or None
        self._chain: tuple[int, dict[int, Perm], PermutationGroup] | None = None
        if not self._elements or self._elements[0] != Perm.identity(degree):
            raise BadParameters("identity missing from element set")

    # -- construction ------------------------------------------------------

    @classmethod
    def close(cls, generators, degree: int | None = None,
              cap: int = DEFAULT_GROUP_CAP) -> "PermutationGroup":
        """The group generated by ``generators``, closed coset by coset.

        Its generators are those the closure kept.  Raises
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
        return cls(degree, sorted(map(Perm, elements)), generators=kept)

    @classmethod
    def from_strong_generators(cls, degree: int,
                               generators: Sequence[Perm]) -> "PermutationGroup":
        """The group of strong generators for the base 0..degree-1, as a
        stabilizer chain; the generators stay the group's own.

        The generators moving no point below i generate G_i, the stabilizer
        of 0..i-1 (Sims 1970).  So every generator fixes each point below
        beta, the least point any of them moves, and those moving no point
        up to beta generate G_beta, built the same way.  Nothing is
        expanded: the group keeps beta, the Schreier-tree transversal of
        beta's orbit and G_beta, and ``order`` is the orbit length times
        |G_beta|.
        """
        generators = tuple(generators)
        firsts = [next((v for v, x in enumerate(g) if v != x), degree)
                  for g in generators]
        group = cls.__new__(cls)
        group.degree, group._generators, group._index = degree, generators, {}
        group._elements, group._chain = None, None
        beta = min(firsts, default=degree)
        if beta == degree:
            group._elements = (Perm.identity(degree),)
        else:
            rest = [g for g, first in zip(generators, firsts) if first > beta]
            group._chain = (beta, _transversal(degree, beta, generators),
                            cls.from_strong_generators(degree, rest))
        return group

    def _expand(self) -> tuple[Perm, ...]:
        """A chain's elements in lexicographic order, from its transversals.

        Every element of a chain group is h*u for one h in G_beta and one u
        in the transversal, so with base points beta_1 < beta_2 < ... every
        element g is u_k * ... * u_1, read off level by level, and
        the prefix r = u_(i-1) * ... * u_1 already fixes g at every point
        below beta_i while g[beta_i] = r[b] for the u_i sending beta_i to b.
        Expanding each prefix r in the order of r[b] therefore lists the
        elements in lexicographic order, one product per element of each
        level.
        """
        elements = [Perm.identity(self.degree)]
        group = self
        while group._chain is not None:
            _, trans, group = group._chain
            elements = [Perm(trans[b].translate(t)) for r in elements for t in [_table(r)]
                        for b in sorted(trans, key=r.__getitem__)]
        return tuple(elements)

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
        if self._chain is None:
            return len(self.elements)
        _, trans, stabilizer = self._chain
        return len(trans) * stabilizer.order

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    @property
    def generators(self) -> tuple[Perm, ...]:
        if self._generators is None:
            self._generators = self.small_generating_set()
        return self._generators

    def __contains__(self, p) -> bool:
        """A bisection of the elements, or down a chain a sift: p lies in
        the chain group iff u = u_(p[beta]) exists and p * u^-1 lies in G_beta."""
        if sorted(p) != list(self.identity):  # no permutation of the degree
            return False
        group, p = self, Perm(p)
        while group._chain is not None:
            beta, trans, group = group._chain
            u = trans.get(p[beta])
            if u is None:
                return False
            p = p * u.inverse()
        elements = group.elements
        i = bisect.bisect_left(elements, p)
        return i < len(elements) and elements[i] == p

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
        by coset (Dimino's closure) until it is the whole group.
        """
        return tuple(_dimino(self.degree, self.elements, self.order - 1)[1])

    # -- actions -----------------------------------------------------------

    def orbit(self, point: int) -> frozenset[int]:
        """Smallest generator-closed set of points containing ``point``."""
        return frozenset(b for (b,) in self.tuple_orbit((point,)))

    def tuple_orbit(self, tup: Sequence[int], cap: int | None = None) -> set[tuple[int, ...]]:
        """Orbit of a point tuple under the coordinatewise action."""
        for p in tup:
            if not 0 <= p < self.degree:
                raise BadParameters(f"point {p} outside degree {self.degree}")
        return tuple_orbit_under(self.generators, tup, cap)

    def transporter(self, src: Sequence[int], dst: Sequence[int]) -> list[Perm]:
        """All elements mapping ``src`` onto ``dst`` pointwise, sorted.

        A coset of the pointwise stabilizer of ``src``, or empty; the empty
        tuples give every element.  When ``src`` starts at a chain's base
        point, the answer comes from G_beta and reads no element of the
        chain group; otherwise from the bucket index.
        """
        if len(src) != len(dst):
            raise BadParameters(f"point tuples {tuple(src)} and {tuple(dst)} differ in length")
        for p in itertools.chain(src, dst):
            if not 0 <= p < self.degree:
                raise BadParameters(f"point {p} outside degree {self.degree}")
        # down the chain while src starts at its base point: g = h * u for
        # the u sending beta to dst[0] and h in G_beta sending the rest of
        # src to u^-1 of the rest of dst
        group, lift = self, None
        while src and group._chain is not None and src[0] == group._chain[0]:
            _, trans, group = group._chain
            u = trans.get(dst[0])
            if u is None:
                return []
            back = u.inverse()
            src, dst = src[1:], [back[b] for b in dst[1:]]
            lift = u if lift is None else u * lift
        if not src:
            found = list(group.elements)
        else:
            order, offsets = group._index_row(src[0])
            elements = group.elements
            found = [elements[i] for i in order[offsets[dst[0]]:offsets[dst[0] + 1]]]
            for a, b in itertools.islice(zip(src, dst), 1, None):
                found = [g for g in found if g[a] == b]
        if lift is None:
            return found
        return sorted(h * lift for h in found)

    def _index_row(self, a: int) -> tuple[array, list[int]]:
        """Element positions stably sorted by the image of ``a``, and the
        offsets where each image's bucket starts (``degree + 1`` of them).

        Buckets keep the lexicographic order of ``elements``.
        """
        row = self._index.get(a)
        if row is None:
            buckets: list[list[int]] = [[] for _ in range(self.degree)]
            for i, g in enumerate(self.elements):
                buckets[g[a]].append(i)
            typecode = "H" if len(self.elements) <= 1 << 16 else "I"
            row = (array(typecode, itertools.chain.from_iterable(buckets)),
                   list(itertools.accumulate(map(len, buckets), initial=0)))
            self._index[a] = row
        return row

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermutationGroup":
        """Subgroup fixing every listed point; the empty tuple gives the group itself.

        Points that start at a chain's base point beta are G_beta's own
        stabilizer of the rest, so (beta,) alone gives G_beta with its
        strong generators.
        """
        group, pts = self, tuple(points)
        while pts and group._chain is not None and pts[0] == group._chain[0]:
            group, pts = group._chain[2], pts[1:]
        if not pts:
            return group
        return PermutationGroup(group.degree, group.transporter(pts, pts))

    def least_image(self, tup: Sequence[int]) -> tuple[int, ...]:
        """The lexicographically least image of a point tuple under the group.

        Greedy, point by point: with H the stabilizer of the points handled
        so far and a the element reaching their least images, the next
        least image is the least a-image of the next point's orbit under H,
        reached through its transversal (:func:`point_stabilizer`), and H
        shrinks to that point's stabilizer.  A chain handles a first point in
        its base point beta's orbit, whose least member is beta, by moving
        the tuple to start at beta and continuing in G_beta.  The loop stops
        once H is trivial, and the last point needs its orbit alone.
        """
        pts = list(tup)
        for p in pts:
            if not 0 <= p < self.degree:
                raise BadParameters(f"point {p} outside degree {self.degree}")
        gens, start, a = self.generators, 0, self.identity
        if pts and self._chain is not None and pts[0] in self._chain[1]:
            _, trans, stabilizer = self._chain
            back = trans[pts[0]].inverse()
            pts, gens, start = [back[p] for p in pts], stabilizer.generators, 1
        for k in range(start, len(pts)):
            if not gens:
                break
            if k == len(pts) - 1:
                trans = _transversal(self.degree, pts[k], gens)
            else:
                trans, gens = point_stabilizer(self.degree, gens, pts[k])
            a = trans[min(trans, key=a.__getitem__)] * a
        return tuple(a[p] for p in pts)

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

        Searches subsets of the full element set of size 1..MIN_GENERATING_SEARCH_CAP.
        """
        if self.order == 1:
            return 0
        nontrivial = self.elements[1:]  # the identity comes first
        for size in range(1, MIN_GENERATING_SEARCH_CAP + 1):
            for combo in itertools.combinations(nontrivial, size):
                # the closure stops as soon as it fills the group
                if len(_dimino(self.degree, combo, self.order - 1)[0]) == self.order:
                    return size
        return None


"""Finite permutation group engine.

Permutations act on the right throughout: ``v ** (g*h) == (v ** g) ** h``
in exponent notation, i.e. ``(g*h)[v] == h[g[v]]``.  Groups are fully
materialized by Dimino's closure, which grows the subgroup generated so
far a whole right coset at a time, so each new element costs one product
instead of one per generator; point and tuple orbits use a breadth-first
closure.  Everything here is immutable and safe to share.

``PermutationGroup.transporter``, behind every stabilizer and shunt query,
answers from a per-source-point bucket index: for a point ``a`` it holds
the element positions grouped by the image of ``a``, so a query starts
from the |G|/|orbit| elements sending ``src[0]`` to ``dst[0]`` instead of
all of G.  A point's row is built on its first query, at 2 bytes per
element (4 above 65,536 elements); a group that is never queried builds
none.  Rows are a cache of the immutable element list: two racing builds
of one row store equal rows.

Each answer is computed once.  A ``PermutationGroup`` trusts its element
list to be a group, and a transporter answer is not re-derived as a coset;
the test suite checks both for every group and query it builds
(``tests/conftest.py``).
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Callable, Iterable, Sequence

from .errors import (
    BadParameters,
    CapExceeded,
    DegreeMismatch,
    DomainNotInvariant,
    InvalidPermutation,
)

DEFAULT_GROUP_CAP = 2_000_000


class Perm(tuple):
    """A permutation of {0..n-1} stored as its tuple of images.

    ``p[v]`` is the image of point ``v``; ``p * q`` applies ``p`` first.
    Construction does not validate; use :meth:`from_images` for raw input.
    """

    __slots__ = ()

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_images(cls, images: Iterable[int]) -> "Perm":
        p = cls(int(i) for i in images)
        if sorted(p) != list(range(len(p))):
            raise InvalidPermutation(f"not a bijection on 0..{len(p) - 1}: {list(p)}")
        return p

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
        return Perm(other[i] for i in self)

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for v, image in enumerate(self):
            inv[image] = v
        return Perm(inv)

    def is_identity(self) -> bool:
        return all(i == v for v, i in enumerate(self))

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


def compose(p: Perm, q: Perm) -> Perm:
    """Apply ``p`` then ``q`` (right action)."""
    return p * q


def _as_perms(generators: Iterable[Sequence[int]]) -> list[Perm]:
    return [g if isinstance(g, Perm) else Perm.from_images(g) for g in generators]


def _closure(seen: set, frontier: list, gens: Sequence[Perm],
             act: Callable, limit: float = math.inf) -> set:
    """Breadth-first closure of ``seen`` under ``x -> act(x, g)`` for g in ``gens``.

    ``frontier`` holds the members of ``seen`` whose images are unexplored.
    Grows ``seen`` in place and returns it, early once it holds more than
    ``limit`` items.
    """
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > limit:
                        return seen
                    new.append(y)
        frontier = new
    return seen


def _dimino(degree: int, candidates: Iterable[Perm],
            limit: float = math.inf) -> tuple[set[Perm], list[Perm]]:
    """Dimino's closure: the group generated by ``candidates``, a right coset at a time.

    Walks ``candidates`` in order and skips each one already in the
    subgroup H generated so far.  Any other p is kept, and H grows to
    <H, p>: first the coset H*p, then H*y for each y = x*g not yet seen,
    where x runs over the new coset representatives and g over the kept
    candidates.  A new coset costs |H| products and a representative one
    product per kept candidate.  Returns the element set and the kept
    candidates, early once the set holds more than ``limit`` elements.
    """
    seen = {Perm.identity(degree)}
    kept: list[Perm] = []
    for p in candidates:
        if p in seen:
            continue
        kept.append(p)
        subgroup = list(seen)
        seen.update(h * p for h in subgroup)
        reps = [p]
        for x in reps:  # grows while it is walked
            if len(seen) > limit:
                return seen, kept
            for g in kept:
                y = x * g
                if y not in seen:
                    seen.update(h * y for h in subgroup)
                    reps.append(y)
    return seen, kept


def _point_image(x: int, g: Perm) -> int:
    return g[x]


def _tuple_image(t: tuple[int, ...], g: Perm) -> tuple[int, ...]:
    return tuple(g[v] for v in t)


class PermutationGroup:
    """A finite permutation group with a materialized element set.

    ``elements`` must already form a group.  The constructor checks only
    that the identity is present, in O(1), not closure or inverses.  Every
    caller passes a group by construction: a Dimino closure
    (:meth:`close`), the elements of a group fixing given points
    (:meth:`pointwise_stabilizer`), every leaf of the automorphism search,
    or the image of a homomorphism (``graphs.local_group``).
    ``elements`` is lexicographically sorted, so every iteration order
    downstream is deterministic.
    """

    __slots__ = ("degree", "elements", "_eset", "_generators", "_small_gens", "_index")

    def __init__(self, degree: int, elements: Iterable[Perm], generators=None):
        self.degree = degree
        self.elements: tuple[Perm, ...] = tuple(sorted(elements))
        self._eset = frozenset(self.elements)
        self._generators = tuple(generators) if generators is not None else None
        self._small_gens = None
        # source point -> (element positions grouped by image, bucket offsets)
        self._index: dict[int, tuple[array, list[int]]] = {}
        if Perm.identity(degree) not in self._eset:
            raise BadParameters("identity missing from element set")

    # -- construction ------------------------------------------------------

    @classmethod
    def close(cls, generators, degree: int | None = None,
              cap: int = DEFAULT_GROUP_CAP) -> "PermutationGroup":
        """The group generated by ``generators``, closed coset by coset.

        Raises :class:`CapExceeded` once the closure holds more than ``cap``
        elements.
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
        elements, _ = _dimino(degree, gens, cap)
        if len(elements) > cap:
            raise CapExceeded(f"group closure reached {len(elements)} elements, "
                              f"over the cap of {cap}")
        return cls(degree, elements, generators=gens)

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, data: dict, cap: int = DEFAULT_GROUP_CAP) -> "PermutationGroup":
        return cls.close(data["generators"], degree=int(data["degree"]), cap=cap)

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    @property
    def generators(self) -> tuple[Perm, ...]:
        if self._generators is not None:
            return self._generators
        return self.small_generating_set()

    def __contains__(self, p) -> bool:
        return p in self._eset

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"<PermutationGroup degree={self.degree} order={self.order}>"

    def small_generating_set(self) -> tuple[Perm, ...]:
        """A short (greedy, not necessarily minimal) generating sequence.

        Each element, in lexicographic order, that lies outside the subgroup
        H generated so far joins the sequence, and H grows to <H, p> coset
        by coset (Dimino's closure) until it is the whole group.
        """
        if self._small_gens is None:
            _, gens = _dimino(self.degree, self.elements, self.order - 1)
            self._small_gens = tuple(gens)
        return self._small_gens

    # -- actions -----------------------------------------------------------

    def orbit(self, point: int) -> frozenset[int]:
        """Smallest generator-closed set of points containing ``point``."""
        if not 0 <= point < self.degree:
            raise BadParameters(f"point {point} outside degree {self.degree}")
        return frozenset(_closure({point}, [point], self.generators, _point_image))

    def tuple_orbit(self, tup: Sequence[int], cap: int | None = None) -> set[tuple[int, ...]]:
        """Orbit of a point tuple under the coordinatewise action."""
        start = tuple(tup)
        limit = math.inf if cap is None else cap
        seen = _closure({start}, [start], self.generators, _tuple_image, limit)
        if len(seen) > limit:
            raise CapExceeded(f"tuple orbit reached {len(seen)} tuples, "
                              f"over the cap of {cap}")
        return seen

    def transporter(self, src: Sequence[int], dst: Sequence[int]) -> list[Perm]:
        """All elements mapping ``src`` onto ``dst`` pointwise, sorted.

        A coset of the pointwise stabilizer of ``src``, or empty; the empty
        tuples give every element.
        """
        if len(src) != len(dst):
            raise BadParameters(f"point tuples {tuple(src)} and {tuple(dst)} differ in length")
        for p in itertools.chain(src, dst):
            if not 0 <= p < self.degree:
                raise BadParameters(f"point {p} outside degree {self.degree}")
        if not src:
            return list(self.elements)
        order, offsets = self._index_row(src[0])
        elements = self.elements
        found = [elements[i] for i in order[offsets[dst[0]]:offsets[dst[0] + 1]]]
        for a, b in itertools.islice(zip(src, dst), 1, None):
            found = [g for g in found if g[a] == b]
        return found

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
        """Subgroup fixing every listed point; the empty tuple gives the group itself."""
        pts = tuple(points)
        if not pts:
            return self
        return PermutationGroup(self.degree, self.transporter(pts, pts))

    def is_transitive(self, domain: Iterable[int] | None = None) -> bool:
        """True iff one orbit covers ``domain`` (default: all points)."""
        dom = frozenset(range(self.degree) if domain is None else domain)
        if not dom:
            raise BadParameters("empty domain")
        gens = self.generators
        for g in gens:
            for x in dom:
                if g[x] not in dom:
                    raise DomainNotInvariant(f"generator moves {x} to {g[x]} outside domain")
        start = min(dom)
        return _closure({start}, [start], gens, _point_image) == dom

    def subgroup_equals(self, other: "PermutationGroup") -> bool:
        """True iff the element sets coincide."""
        if self.degree != other.degree:
            raise DegreeMismatch(f"degrees {self.degree} and {other.degree} differ")
        if self.order != other.order:
            return False
        return (all(g in other._eset for g in self.generators)
                and all(g in self._eset for g in other.generators))

    # -- generation --------------------------------------------------------

    def min_generating_size(self, search_cap: int = 4) -> int | None:
        """Exact size of a smallest generating set, or None if the cap was hit.

        Searches subsets of the full element set of size 1..search_cap.
        """
        if self.order == 1:
            return 0
        nontrivial = [p for p in self.elements if not p.is_identity()]
        for p in nontrivial:
            if p.order() == self.order:
                return 1
        for size in range(2, search_cap + 1):
            for combo in itertools.combinations(nontrivial, size):
                # the closure stops as soon as it fills the group
                if len(_dimino(self.degree, combo, self.order - 1)[0]) == self.order:
                    return size
        return None


def close_group(generators, degree: int | None = None,
                cap: int = DEFAULT_GROUP_CAP) -> PermutationGroup:
    """Closure of ``generators`` into a materialized group, coset by coset."""
    return PermutationGroup.close(generators, degree=degree, cap=cap)

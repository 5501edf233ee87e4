"""Exception taxonomy for the library.

Every domain failure raises a subclass of :class:`ConsistentWalksError`;
cap overruns raise :class:`CapExceeded` (or a subclass) so callers can tell
"the instance is too big for desk scale" apart from "the input is wrong".
A failed internal invariant raises :class:`InvariantViolation`: that is a
defect of the library, not of the input.
"""


class ConsistentWalksError(Exception):
    """Base class for all library errors."""


class CapExceeded(ConsistentWalksError):
    """A materialization or search cap was hit; the instance is beyond desk scale."""


class OrbitTooLarge(CapExceeded):
    """A walk-orbit enumeration exceeded its cap."""


class DegreeMismatch(ConsistentWalksError):
    """Permutations of different degrees were combined."""


class InvalidPermutation(ConsistentWalksError):
    """An image array is not a bijection on {0..n-1}."""


class LoopEdge(ConsistentWalksError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(ConsistentWalksError):
    """An edge appears more than once."""


class TooFewVertices(ConsistentWalksError):
    """Graphs here have at least three vertices."""


class UnknownSpec(ConsistentWalksError):
    """Unrecognized named-graph specifier."""


class BadParameters(ConsistentWalksError):
    """Structurally valid input with out-of-range or inconsistent parameters."""


class NotAutomorphisms(ConsistentWalksError):
    """A supplied permutation does not preserve the graph's adjacency."""


class NoNArcs(ConsistentWalksError):
    """The graph has no n-arc for the requested n."""


class InvalidWalk(ConsistentWalksError):
    """A vertex sequence is not a walk in the ambient graph."""


class WalkTooShort(ConsistentWalksError):
    """The operation needs a longer walk."""


class NotConsistent(ConsistentWalksError):
    """The walk has no shunt in the given group."""


class NotVertexTransitive(ConsistentWalksError):
    """The group does not act transitively on the vertices."""


class BaseNotVertexTransitive(NotVertexTransitive):
    """The blow-up base group is not vertex-transitive."""


class NotArcTransitive(ConsistentWalksError):
    """The group does not act transitively on the arcs."""


class NotTransitive(ConsistentWalksError):
    """The permutation group is not transitive on its domain."""


class NotConnected(ConsistentWalksError):
    """The graph is not connected."""


class WrongValence(ConsistentWalksError):
    """The graph does not have the valence the operation requires."""


class BadStabilizerOrder(ConsistentWalksError):
    """A vertex stabilizer order has a prime factor the operation excludes."""


class NoWitness(ConsistentWalksError):
    """No weakly p-subregular witness exists for the local action."""


class ParseError(ConsistentWalksError):
    """An input file or flag could not be parsed."""


class InvariantViolation(ConsistentWalksError):
    """A mathematical identity the library relies on failed: a library defect."""


def invariant(ok: bool, message: str) -> None:
    """Raise :class:`InvariantViolation` with ``message`` unless ``ok``.

    Unlike ``assert``, this check stays under ``python -O``.
    """
    if not ok:
        raise InvariantViolation(message)

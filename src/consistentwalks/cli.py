"""Command-line front end emitting deterministic JSON reports.

Subcommands: orbits | trivial-walk | wps-check | blowup-demo | generators |
property-r.  Exit codes: 0 success, 1 domain error, 2 cap exceeded or
out of memory.
All searches break ties lexicographically, so payloads are byte-stable
across runs for a fixed input and version.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from collections.abc import Iterable, Sequence
from pathlib import Path

from . import __version__
from .errors import (
    BadParameters,
    CapExceeded,
    ConsistentWalksError,
    InvalidPermutation,
    NotAutomorphisms,
    ParseError,
    invariant,
)
from .generation import verify_generation
from .graphs import (
    NAMED_KINDS,
    Graph,
    automorphism_group,
    check_search_size,
    local_group,
    parse_edge_list_text,
    parse_named_spec,
    verify_automorphisms,
)
from .localactions import (
    DEFAULT_WALK_DEPTH,
    find_trivial_walk_4valent,
    find_trivial_walk_exhaustive,
    find_trivial_walk_wps,
    weakly_p_subregular,
)
from .perms import DEFAULT_GROUP_CAP, Perm, PermutationGroup
from .products import blowup_cycle_family, family_orbit_ids, verify_no_trivial_stabilizer
from .reachability import reachability_by_chase, reachability_by_shunt_group
from .walks import consistent_cycle_orbits


def _read_text(path: Path, what: str) -> str:
    """The file's UTF-8 text; a missing, unreadable or undecodable file is a ParseError."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParseError(f"{what} {str(path)!r} not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{what} {str(path)!r} cannot be read as UTF-8 text: "
                         f"{type(exc).__name__}") from None


def _read_json(name: str, text: str):
    """The decoded JSON ``text`` of the file ``name``; invalid JSON, an
    integer too long for Python to convert or nesting too deep for its
    decoder is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{name}: unreadable JSON: {str(exc).split(';')[0]}") from exc


def _int_list(values) -> bool:
    """True iff ``values`` is a list of JSON integers (no bool, float or string)."""
    return isinstance(values, list) and all(type(x) is int for x in values)


def _read_generators(name: str, gens) -> list[list[int]]:
    """``gens`` if it is a list of integer lists; otherwise a ParseError."""
    if not (isinstance(gens, list) and all(map(_int_list, gens))):
        raise ParseError(f"{name}: generators must be a list of integer lists")
    return gens


def _read_graph(source: str) -> tuple[int, Iterable[Sequence[int]], list[list[int]] | None]:
    """The vertex count, edges and embedded generators (or None) of --graph.

    Nothing is built and nothing is allocated per vertex, so the count can
    be refused before any :class:`Graph` exists.
    """
    if source.split(":", 1)[0].strip().lower() in NAMED_KINDS:
        return (*parse_named_spec(source), None)
    path = Path(source)
    if not path.exists():
        raise ParseError(f"graph source {source!r} is neither a named spec nor a file")
    text = _read_text(path, "graph file")
    if path.suffix != ".json" and not text.lstrip().startswith("{"):
        try:
            return (*parse_edge_list_text(text), None)
        except BadParameters as exc:
            raise ParseError(f"{source}: {exc}") from exc
    data = _read_json(source, text)
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ParseError(f"{source}: graph JSON needs 'vertices' and 'edges'")
    n, edges, gens = data["vertices"], data["edges"], data.get("generators")
    if type(n) is not int or not (isinstance(edges, list) and all(
            _int_list(e) and len(e) == 2 for e in edges)):
        raise ParseError(f"{source}: 'vertices' must be an integer and 'edges' "
                         f"a list of integer pairs")
    return n, edges, None if gens is None else _read_generators(source, gens)


def _read_group(path: str) -> tuple[int | None, list[list[int]]]:
    """The declared degree (or None) and the generators of a group file."""
    data = _read_json(path, _read_text(Path(path), "group file"))
    if isinstance(data, list):
        return None, _read_generators(path, data)
    if not isinstance(data, dict) or "generators" not in data:
        raise ParseError(f"{path}: expected a generator list or a degree/generators object")
    declared = data.get("degree")
    if declared is not None and type(declared) is not int:
        raise ParseError(f"{path}: declared degree {declared!r} is not an integer")
    return declared, _read_generators(path, data["generators"])


def parse_inputs(args: argparse.Namespace) -> tuple[Graph, PermutationGroup, str]:
    """Read every input, refuse it if it is malformed, then build the graph and group.

    The generators come from the group file, else from the graph file,
    else from the automorphism search.  Before the :class:`Graph` is built
    the vertex count is checked against the group file's declared degree
    and the length of every generator, or against the search's limit.
    Supplied generators are then verified to be automorphisms.
    """
    n, edges, raw = _read_graph(args.graph)
    source = "embedded"
    if args.group_file:
        source = "file"
        declared, raw = _read_group(args.group_file)
        if declared is not None and declared != n:
            raise ParseError(f"{args.group_file}: declared degree {declared} differs "
                             f"from the graph's {n} vertices")
    if raw is None:
        check_search_size(n)
        graph = Graph(n, edges)
        return graph, automorphism_group(graph, cap=args.cap_group), "aut"
    for images in raw:
        if len(images) != n:
            raise NotAutomorphisms(f"degree {len(images)} != vertex count {n}")
    try:
        gens = [Perm.from_images(images) for images in raw]
    except InvalidPermutation as exc:
        raise ParseError(f"malformed permutation array: {exc}") from exc
    graph = Graph(n, edges)
    verify_automorphisms(graph, gens)
    return graph, PermutationGroup.close(gens, degree=n, cap=args.cap_group), source


def _graph_sha256(graph: Graph) -> str:
    canonical = json.dumps(graph.to_json(), sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


def _parse_walk(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"walk {text!r} is not a list of vertices") from None


# -- subcommand payloads -------------------------------------------------------

def _payload_orbits(graph, group, args) -> dict:
    table = consistent_cycle_orbits(group, graph)
    return {"orbit_count": len(table.records), "orbits": table.to_json()}


def _payload_trivial_walk(graph, group, args) -> dict:
    method = args.method
    if method == "auto":
        method = "4valent" if graph.is_regular() and graph.valence() == 4 else "wps"
    finder = {"wps": find_trivial_walk_wps,
              "4valent": find_trivial_walk_4valent}.get(method)
    if finder is not None:
        witness, cert = finder(group, graph)
    else:
        witness, cert = find_trivial_walk_exhaustive(group, graph,
                                                     depth_cap=args.depth_cap)
    return {"walk": list(witness.walk), "shunt": list(witness.shunt),
            "method": method, "certificate": cert}


def _payload_wps_check(graph, group, args) -> dict:
    local = local_group(group, graph, args.vertex)
    witness = weakly_p_subregular(local.group)
    return {"vertex": args.vertex, "neighborhood": list(local.domain),
            "local_order": local.group.order,
            "witness": witness.to_json() if witness else None}


def _payload_blowup_demo(graph, group, args) -> dict:
    check_search_size(graph.vertex_count * args.m)
    family = blowup_cycle_family(graph, group, args.m)
    blowup_group = automorphism_group(family.blowup, cap=args.cap_group)
    table = consistent_cycle_orbits(blowup_group, family.blowup)
    ids = family_orbit_ids(family, blowup_group, table)
    verdict, offender = verify_no_trivial_stabilizer(table)
    return {"family": family.to_json(),
            "blowup_vertices": family.blowup.vertex_count,
            "blowup_group_order": blowup_group.order,
            "census": table.to_json(),
            "family_orbit_ids": [{"orbit": i, "fibers": j, "id": ids[i, j]}
                                 for i, j in sorted(ids)],
            "family_orbits_distinct": len(set(ids.values())) == len(ids),
            "no_trivial_stabilizer": verdict,
            "offending_cycle": list(offender) if offender else None}


def _payload_generators(graph, group, args) -> dict:
    return verify_generation(group, graph).to_json()


def _payload_property_r(graph, group, args) -> dict:
    walk = _parse_walk(args.walk)
    # the chase refuses a bad target before any group query, so it runs first
    by_chase = reachability_by_chase(group, graph, walk, target=args.target)
    by_group = reachability_by_shunt_group(group, graph, walk)
    invariant(by_group.verdict == by_chase.verdict, "the two deciders must agree")
    return {"walk": list(walk), "verdict": by_group.verdict,
            "shunt_group": by_group.to_json(), "chase": by_chase.to_json()}


PAYLOADS = {
    "orbits": _payload_orbits,
    "trivial-walk": _payload_trivial_walk,
    "wps-check": _payload_wps_check,
    "blowup-demo": _payload_blowup_demo,
    "generators": _payload_generators,
    "property-r": _payload_property_r,
}


def run(args: argparse.Namespace) -> dict:
    """Dispatch one subcommand and wrap its payload in the report envelope."""
    started = time.perf_counter()
    graph, group, source = parse_inputs(args)
    payload = PAYLOADS[args.subcommand](graph, group, args)
    return {
        "subcommand": args.subcommand,
        "input": {"graph_sha256": _graph_sha256(graph),
                  "vertices": graph.vertex_count,
                  "edges": graph.edge_count(),
                  "group_order": group.order,
                  "group_source": source},
        "payload": payload,
        "elapsed_s": round(time.perf_counter() - started, 6),
        "version": __version__,
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cwalks`` parser, built once per process: it holds no state
    between calls, and each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="cwalks",
        description="Consistent walks and cycles in vertex-transitive graphs.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", required=True,
                       help="named spec (e.g. petersen, cycle:6) or a file path")
        p.add_argument("--group-file", help="JSON generator file; default: full Aut")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--cap-group", type=int, default=DEFAULT_GROUP_CAP)

    common(sub.add_parser("orbits", help="consistent-cycle orbit census"))

    p = sub.add_parser("trivial-walk", help="search for a trivial-stabilizer walk")
    common(p)
    p.add_argument("--method", choices=["auto", "wps", "4valent", "exhaustive"],
                   default="auto")
    p.add_argument("--depth-cap", type=int, default=DEFAULT_WALK_DEPTH)

    p = sub.add_parser("wps-check", help="weakly p-subregular local action check")
    common(p)
    p.add_argument("--vertex", type=int, default=0)

    p = sub.add_parser("blowup-demo", help="blow-up cycle family and verdicts")
    common(p)
    p.add_argument("--m", type=int, default=2, help="fiber size")

    common(sub.add_parser("generators", help="shunt generating set report"))

    p = sub.add_parser("property-r", help="reachability of all vertices from a walk")
    common(p)
    p.add_argument("--walk", required=True, help="comma-separated vertices")
    p.add_argument("--target", type=int, help="vertex for the witness chain")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = json.dumps(run(args), indent=2) + "\n"
        if args.out:
            try:
                Path(args.out).write_text(text)
            except OSError as exc:
                raise ParseError(f"cannot write --out {args.out}: {type(exc).__name__}") from exc
        else:
            sys.stdout.write(text)
    except (CapExceeded, MemoryError) as exc:
        # an input too large for this process is refused like one over a cap
        print(json.dumps({"error": type(exc).__name__,
                          "message": str(exc) or "out of memory"}), file=sys.stderr)
        return 2
    except ConsistentWalksError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

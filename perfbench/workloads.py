"""Seeded inputs, query lists and output checks for the three workloads.

- ``census`` and ``search`` send fixed ``cwalks`` queries on the graph
  ladder; the group is built anew on every query, as the CLI does.
- ``walk-queries`` is a library session: automorphism groups are built
  once during set-up, then a few hundred walk queries hit the warm groups.

The graphs, the blow-up files, the walks and the checks are written here
in plain Python and share no code path with the library they check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DIGESTS = Path(__file__).with_name("digests.json")

WORKLOADS = ("census", "walk-queries", "search")

# |Aut| of every ladder graph, from the literature, not from the library.
AUT_ORDER = {
    "cycle:4": 8, "cycle:6": 12, "petersen": 120, "complete:5": 120,
    "complete:6": 720, "hypercube:3": 48, "hypercube:4": 384,
    "hypercube:5": 3840, "C4[2K1]": 1152, "Q3[2K1]": 12288,
}
BLOWUPS = {"C4[2K1]": "cycle:4", "Q3[2K1]": "hypercube:3"}


# -- graphs, built without the library ----------------------------------------

def ladder_graph(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list, numbered as ``named_graph``/``lex_blowup`` do."""
    if spec in BLOWUPS:
        n, edges = ladder_graph(BLOWUPS[spec])
        return 2 * n, [(2 * u + i, 2 * v + j) for u, v in edges
                       for i in range(2) for j in range(2)]
    kind, _, arg = spec.partition(":")
    if kind == "cycle":
        n = int(arg)
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        n = int(arg)
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "hypercube":
        n = 1 << int(arg)
        return n, [(v, v ^ bit) for v in range(n) for bit in _bits(int(arg))
                   if v < v ^ bit]
    if kind == "petersen":
        pairs = _petersen_pairs()
        return 10, [(a, b) for a, p in enumerate(pairs) for b, q in enumerate(pairs)
                    if a < b and not set(p) & set(q)]
    raise ValueError(f"not a ladder graph: {spec}")


def _bits(a: int) -> list[int]:
    return [1 << b for b in range(a)]


def _petersen_pairs() -> list[tuple[int, int]]:
    return [(i, j) for i in range(5) for j in range(i + 1, 5)]


def adjacency(spec: str) -> list[set[int]]:
    n, edges = ladder_graph(spec)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def random_automorphism(spec: str, rng: random.Random) -> list[int]:
    """A random automorphism of a walk-queries graph, from its known structure."""
    if spec == "petersen":
        sigma = list(range(5))
        rng.shuffle(sigma)
        pairs = _petersen_pairs()
        index = {p: k for k, p in enumerate(pairs)}
        image = [index[tuple(sorted((sigma[i], sigma[j])))] for i, j in pairs]
    elif spec.startswith("hypercube:"):
        a = int(spec.partition(":")[2])
        perm = list(range(a))
        rng.shuffle(perm)
        shift = rng.randrange(1 << a)
        image = [sum(1 << perm[b] for b in range(a) if v >> b & 1) ^ shift
                 for v in range(1 << a)]
    elif spec in BLOWUPS:
        base = random_automorphism(BLOWUPS[spec], rng)
        flips = [rng.randrange(2) for _ in base]
        image = [2 * base[x // 2] + (x % 2 ^ flips[x // 2]) for x in range(2 * len(base))]
    else:
        raise ValueError(f"no automorphism sampler for {spec}")
    n, edges = ladder_graph(spec)
    edge_set = {frozenset(e) for e in edges}
    if sorted(image) != list(range(n)) or any(
            frozenset((image[u], image[v])) not in edge_set for u, v in edges):
        raise RuntimeError(f"sampled map is not an automorphism of {spec}")
    return image


def shuffled_edges(spec: str, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """The edge list in a seeded order, each edge in a seeded orientation."""
    n, edges = ladder_graph(spec)
    edges = [(v, u) if rng.randrange(2) else (u, v) for u, v in edges]
    rng.shuffle(edges)
    return n, edges


def write_graph_file(directory: Path, spec: str, rng: random.Random) -> Path:
    """Write a blow-up as graph JSON or edge-list text, as the seed picks."""
    n, edges = shuffled_edges(spec, rng)
    stem = spec.replace("[", "_").replace("]", "")
    if rng.randrange(2):
        path = directory / f"{stem}.json"
        path.write_text(json.dumps({"vertices": n, "edges": [list(e) for e in edges]}))
    else:
        path = directory / f"{stem}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return path


# -- CLI workloads ------------------------------------------------------------

@dataclass
class CliQuery:
    label: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    expect_error: str | None = None


def payload_digest(body) -> str:
    return hashlib.sha256(json.dumps(body, separators=(",", ":")).encode()).hexdigest()


def _is_automorphism(adj: list[set[int]], images) -> bool:
    return (sorted(images) == list(range(len(adj)))
            and all({images[w] for w in adj[v]} == adj[images[v]] for v in range(len(adj))))


def _is_walk(adj: list[set[int]], walk) -> bool:
    return len(walk) >= 2 and all(b in adj[a] for a, b in zip(walk, walk[1:]))


def _check_census(spec: str, census: list[dict], group_order: int) -> list[str]:
    """Orbit count = valence, orbit-stabilizer, closed representatives."""
    adj = adjacency(spec)
    problems = []
    if len(census) != len(adj[0]):
        problems.append(f"{len(census)} orbits on a {len(adj[0])}-valent graph")
    if [r["length"] for r in census].count(2) != 1:
        problems.append("census needs exactly one trivial orbit")
    for r in census:
        rep = r["representative"]
        if not _is_walk(adj, rep) or rep[0] != rep[-1]:
            problems.append(f"representative {rep} is not a closed walk")
        if r["orbit_size"] * r["stabilizer_order"] != group_order:
            problems.append(f"orbit-stabilizer fails for {rep}")
    return problems


def _check_order(report: dict, spec: str) -> list[str]:
    order = report["input"]["group_order"]
    return [] if order == AUT_ORDER[spec] else [f"|Aut({spec})| = {order}"]


def check_orbits(spec: str) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        payload = report["payload"]
        return (_check_order(report, spec)
                + _check_census(spec, payload["orbits"], AUT_ORDER[spec])
                + ([] if payload["orbit_count"] == len(payload["orbits"])
                   else ["orbit_count disagrees with the table"]))
    return check


def check_generators(spec: str) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        p = report["payload"]
        adj = adjacency(spec)
        problems = _check_order(report, spec)
        if p["group_order"] != AUT_ORDER[spec] or p["valence"] != len(adj[0]):
            problems.append("group order or valence wrong")
        if len(p["shunts"]) != len(adj[0]):
            problems.append("one shunt per orbit expected")
        if not all(_is_automorphism(adj, s) for s in p["shunts"]):
            problems.append("a shunt is not an automorphism")
        if AUT_ORDER[spec] % p["shunt_group_order"]:
            problems.append("shunt group order does not divide |Aut|")
        if p["generates"] != (p["shunt_group_order"] == p["group_order"]):
            problems.append("generates disagrees with the orders")
        if not p["with_stabilizer_generates"]:
            problems.append("shunts with the stabilizer must generate")
        return problems
    return check


# (no trivial-stabilizer walk, family orbits distinct) per base graph
BLOWUP_VERDICTS = {"cycle:4": (False, False), "hypercube:3": (True, True)}


def check_blowup_demo(base: str) -> Callable[[dict], list[str]]:
    blowup = next(b for b, s in BLOWUPS.items() if s == base)

    def check(report: dict) -> list[str]:
        p = report["payload"]
        problems = _check_order(report, base)
        if p["blowup_group_order"] != AUT_ORDER[blowup]:
            problems.append(f"|Aut({blowup})| = {p['blowup_group_order']}")
        if (p["no_trivial_stabilizer"], p["family_orbits_distinct"]) != BLOWUP_VERDICTS[base]:
            problems.append("blow-up verdicts changed")
        return problems + _check_census(blowup, p["census"], AUT_ORDER[blowup])
    return check


def check_trivial_walk(spec: str) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        p = report["payload"]
        adj = adjacency(spec)
        walk, shunt, cert = p["walk"], p["shunt"], p["certificate"]
        problems = _check_order(report, spec)
        if not _is_walk(adj, walk):
            problems.append(f"{walk} is not a walk")
        if not _is_automorphism(adj, shunt):
            problems.append("the shunt is not an automorphism")
        if any(shunt[a] != b for a, b in zip(walk, walk[1:])):
            problems.append("the shunt does not map the prefix onto the suffix")
        if cert["stabilizer_order"] != 1 or not cert["certified"]:
            problems.append("certificate is not a trivial-stabilizer certificate")
        return problems
    return check


def check_property_r(spec: str, walk: list[int], target: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        p = report["payload"]
        adj = adjacency(spec)
        order = p["shunt_group"]["witness"]["shunt_group_order"]
        chain = p["chase"]["witness"]["chain"]
        problems = _check_order(report, spec)
        if p["walk"] != walk or not p["verdict"]:
            problems.append("the walk must reach every vertex")
        if not p["verdict"] == p["shunt_group"]["verdict"] == p["chase"]["verdict"]:
            problems.append("the deciders disagree")
        if AUT_ORDER[spec] % order or order % len(adj):
            problems.append(f"shunt group order {order} is impossible")
        steps = [walk] + (chain or [])
        if not chain or chain[-1][-1] != target or any(
                b[:-1] != a[1:] or not _is_walk(adj, b) for a, b in zip(steps, steps[1:])):
            problems.append("the chase chain does not lead to the target")
        return problems
    return check


def no_payload(report: dict) -> list[str]:
    return []


def census_queries(files: dict[str, Path]) -> list[CliQuery]:
    queries = []
    for spec in ("cycle:6", "petersen", "hypercube:4", "C4[2K1]", "Q3[2K1]"):
        graph = str(files.get(spec, spec))
        queries.append(CliQuery(f"orbits {spec}", ["orbits", "--graph", graph],
                                check_orbits(spec)))
        queries.append(CliQuery(f"generators {spec}", ["generators", "--graph", graph],
                                check_generators(spec)))
    for base in ("cycle:4", "hypercube:3"):
        queries.append(CliQuery(f"blowup-demo {base} m=2",
                                ["blowup-demo", "--graph", base, "--m", "2"],
                                check_blowup_demo(base)))
    return queries


def search_queries(files: dict[str, Path]) -> list[CliQuery]:
    q3 = str(files["Q3[2K1]"])
    queries = [CliQuery("trivial-walk exhaustive Q3[2K1] depth-cap 4",
                        ["trivial-walk", "--graph", q3, "--method", "exhaustive",
                         "--depth-cap", "4"], no_payload, expect_error="NoWitness")]
    for spec, method in (("hypercube:5", "exhaustive"), ("complete:6", "exhaustive"),
                         ("hypercube:4", "auto"), ("C4[2K1]", "auto"),
                         ("petersen", "wps"), ("complete:5", "4valent")):
        graph = str(files.get(spec, spec))
        queries.append(CliQuery(f"trivial-walk {method} {spec}",
                                ["trivial-walk", "--graph", graph, "--method", method],
                                check_trivial_walk(spec)))
    for spec, walk, target in (("Q3[2K1]", [0, 2, 6], 15),
                               ("hypercube:5", [0, 1, 3, 7], 31)):
        graph = str(files.get(spec, spec))
        queries.append(CliQuery(f"property-r {spec} {walk} -> {target}",
                                ["property-r", "--graph", graph,
                                 "--walk", ",".join(map(str, walk)), "--target", str(target)],
                                check_property_r(spec, walk, target)))
    return queries


class CliWorkload:
    """census or search: fixed CLI queries, blow-up files written from the seed."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        from consistentwalks import cli
        self.cli = cli
        rng = random.Random(seed)
        files = {spec: write_graph_file(work_dir, spec, rng) for spec in BLOWUPS}
        self.queries = (census_queries if name == "census" else search_queries)(files)
        self.digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}

    def execute(self, query: CliQuery) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(query.argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def digest(outcome: tuple[int, str, str]) -> str:
        code, out, err = outcome
        return payload_digest(json.loads(out)["payload"] if code == 0 else json.loads(err))

    def check(self, index: int, query: CliQuery, outcome) -> list[str]:
        kind, value = outcome
        if kind != "ok":
            return [f"{query.label}: {kind}: {value}"]
        code, out, err = value
        if query.expect_error:
            error = json.loads(err)["error"] if code == 1 else None
            if error != query.expect_error:
                return [f"{query.label}: expected {query.expect_error}, got exit {code} {err.strip()}"]
            problems = []
        elif code != 0:
            return [f"{query.label}: exit {code} {err.strip()}"]
        else:
            problems = query.check(json.loads(out))
        digest = self.digest(value)
        if self.digests.get(query.label) != digest:
            problems.append(f"payload digest {digest[:12]} differs from the recorded one")
        return [f"{query.label}: {p}" for p in problems]


# -- walk-queries --------------------------------------------------------------

WALK_GRAPHS = ("petersen", "hypercube:4", "hypercube:5", "Q3[2K1]")
WALK_KINDS = ("shunts", "successors", "successor_count", "chase", "shunt_group")
WALK_LENGTHS = range(1, 6)
WALKS_PER_CELL = 3
# The catalogue of walk shapes is fixed; each run's seed moves every walk by
# its own random automorphism and draws the chase targets, so the inputs
# change from seed to seed while the work they cost stays the same.
CATALOGUE_SEED = 1959


@dataclass
class WalkQuery:
    label: str
    graph: str
    kind: str
    walk: tuple[int, ...]
    target: int | None = None


def _non_backtracking_walk(adj: list[set[int]], length: int,
                           rng: random.Random) -> tuple[int, ...]:
    walk = [rng.randrange(len(adj))]
    while len(walk) <= length:
        choices = sorted(adj[walk[-1]] - ({walk[-2]} if len(walk) > 1 else set()))
        walk.append(rng.choice(choices))
    return tuple(walk)


def walk_queries(seed: int) -> list[WalkQuery]:
    shapes = random.Random(CATALOGUE_SEED)
    rng = random.Random(seed)
    queries = []
    for spec in WALK_GRAPHS:
        adj = adjacency(spec)
        for kind in WALK_KINDS:
            for length in WALK_LENGTHS:
                for _ in range(WALKS_PER_CELL):
                    shape = _non_backtracking_walk(adj, length, shapes)
                    image = random_automorphism(spec, rng)
                    walk = tuple(image[v] for v in shape)
                    target = rng.randrange(len(adj)) if kind == "chase" else None
                    queries.append(WalkQuery(f"{kind} {spec} {list(walk)}", spec,
                                             kind, walk, target))
    return queries


def _plain_shunts(elements, walk) -> list[tuple[int, ...]]:
    found = elements
    for a, b in zip(walk, walk[1:]):
        found = [g for g in found if g[a] == b]
    return [tuple(g) for g in found]


def _plain_successors(elements, walk) -> list[tuple[int, ...]]:
    return sorted({tuple(g[v] for v in walk) for g in _plain_shunts(elements, walk)})


def _orbit(start, generators) -> set:
    seen, frontier = {start}, [start]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = tuple(g[v] for v in x) if isinstance(x, tuple) else g[x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


class WalkSession:
    """walk-queries: one automorphism group per graph, built once."""

    def __init__(self, seed: int):
        import consistentwalks as cw
        self.cw = cw
        self.graphs, self.groups, self.verified = {}, {}, {}
        rng = random.Random(seed)
        for spec in WALK_GRAPHS:
            n, edges = shuffled_edges(spec, rng)
            self.graphs[spec] = cw.Graph(n, edges)
            self.groups[spec] = cw.automorphism_group(self.graphs[spec])
        self.queries = walk_queries(seed)

    def execute(self, q: WalkQuery):
        cw, group, graph = self.cw, self.groups[q.graph], self.graphs[q.graph]
        if q.kind == "chase":
            return cw.reachability_by_chase(group, graph, q.walk, target=q.target)
        if q.kind == "shunt_group":
            return cw.reachability_by_shunt_group(group, graph, q.walk)
        return getattr(cw, q.kind)(group, graph, q.walk)

    @staticmethod
    def normalize(q: WalkQuery, outcome):
        kind, value = outcome
        if kind == "error":
            return ("error", type(value).__name__)
        if kind != "ok":
            return (kind, value)
        if q.kind in ("chase", "shunt_group"):
            return ("ok", value.to_json())
        if q.kind == "successor_count":
            return ("ok", value)
        return ("ok", [tuple(x) for x in value])

    def check(self, index: int, q: WalkQuery, outcome) -> list[str]:
        """Compare with a plain scan of the group's elements, once per query;
        later passes must repeat the verified answer exactly."""
        answer = self.normalize(q, outcome)
        if index in self.verified:
            same = self.verified[index] == answer
            return [] if same else [f"{q.label}: answer changed between passes"]
        problems = [f"{q.label}: {p}" for p in self._oracle(q, answer)]
        if not problems:
            self.verified[index] = answer
        return problems

    def _oracle(self, q: WalkQuery, answer) -> list[str]:
        elements = self.groups[q.graph].elements
        n = self.graphs[q.graph].vertex_count
        shunts = _plain_shunts(elements, q.walk)
        if answer[0] == "traceback":
            return [answer[1]]
        if not shunts and q.kind != "shunts":
            return [] if answer == ("error", "NotConsistent") else [f"expected NotConsistent, got {answer}"]
        if answer[0] != "ok":
            return [f"unexpected {answer}"]
        value = answer[1]
        if q.kind == "shunts":
            return [] if value == shunts else ["shunts differ from a plain scan"]
        successors = _plain_successors(elements, q.walk)
        if q.kind == "successors":
            return [] if value == successors else ["successors differ from a plain scan"]
        if q.kind == "successor_count":
            return [] if value == len(successors) else ["successor count differs"]
        if q.kind == "shunt_group":
            return self._check_shunt_group(q, value, elements, shunts, n)
        return self._check_chase(q, value, elements, n)

    @staticmethod
    def _check_shunt_group(q: WalkQuery, report: dict, elements, shunts, n) -> list[str]:
        # H = <shunts> = <G_prefix, one shunt> contains G_prefix, the stabilizer
        # of the prefix tuple, so |H| = |G_prefix| * |prefix^H|.
        prefix = q.walk[:-1]
        stab = [g for g in elements if all(g[v] == v for v in prefix)]
        generators = stab + [shunts[0]]
        order = len(stab) * len(_orbit(prefix, generators))
        transitive = len(_orbit(0, generators)) == n
        expected = {"walk": list(q.walk), "verdict": transitive, "method": "shunt-group",
                    "witness": {"shunt_group_order": order, "transitive": transitive}}
        return [] if report == expected else [f"expected {expected['witness']}, got {report['witness']}"]

    @staticmethod
    def _check_chase(q: WalkQuery, report: dict, elements, n) -> list[str]:
        successors: dict = {}

        def succ(walk):
            if walk not in successors:
                successors[walk] = _plain_successors(elements, walk)
            return successors[walk]

        reached, seen, frontier = {q.walk[-1]}, {q.walk}, [q.walk]
        while frontier and len(reached) < n:
            new = []
            for cur in frontier:
                for s in succ(cur):
                    if s not in seen:
                        seen.add(s)
                        new.append(s)
                        reached.add(s[-1])
            frontier = new
        witness = report["witness"]
        problems = []
        if report["verdict"] != (len(reached) == n) or witness["reached_vertices"] != len(reached):
            problems.append(f"reached {witness['reached_vertices']}, plain chase {len(reached)}")
        chain = witness["chain"]
        if (chain is None) != (q.target not in reached):
            problems.append("chain presence disagrees with the target's reachability")
        elif chain is not None:
            steps = [q.walk] + [tuple(s) for s in chain]
            if steps[-1][-1] != q.target or any(
                    b not in succ(a) for a, b in zip(steps, steps[1:])):
                problems.append("chain is not a successor chain to the target")
        return problems


def build(name: str, seed: int, work_dir: Path):
    if name == "walk-queries":
        return WalkSession(seed)
    return CliWorkload(name, seed, work_dir)

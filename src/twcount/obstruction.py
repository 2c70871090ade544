"""Wall-obstruction machinery: constants, tiling, templates, selection rules.

A wall-obstruction is a subgraph of an incidence graph that subdivides a
(2t+2)-wall, certifying treewidth above t. The template of an obstruction is
a bipartite graph between its common external killers and representatives of
connected regions of the obstruction; the three selection rules read off a
small variable set that every small strong backdoor must intersect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .backdoor import killer_set
from .formula import CnfFormula, FormulaError
from .graphs import build_incidence
from .walls import WallModel


def degree_budget(t: int) -> int:
    """Per-representative degree unit: ceil(16 (t+2) log2 (t+2))."""
    return math.ceil(16 * (t + 2) * math.log2(t + 2))


@dataclass(frozen=True)
class FptConstants:
    """The parameter-dependent quantities of the detection machinery.

    The treewidth cutoff 20^(64 wall_size^5) is astronomically large, so only
    its base-10 logarithm is stored.
    """

    k: int
    t: int
    degree_budget: int
    group_size: int
    obstruction_count: int
    wall_size: int
    tw_cutoff_log10: float
    output_size_bound: int


def fpt_constants(k: int, t: int) -> FptConstants:
    if k < 0 or t < 0:
        raise ValueError("k and t must be nonnegative")
    nb = degree_budget(t)
    group = 3 * nb * nb * t * 4**k
    obstructions = 2**k * group + k
    wall = math.ceil((2 * t + 2) * (1 + math.sqrt(obstructions)))
    return FptConstants(
        k=k,
        t=t,
        degree_budget=nb,
        group_size=group,
        obstruction_count=obstructions,
        wall_size=wall,
        tw_cutoff_log10=64 * wall**5 * math.log10(20),
        output_size_bound=2**k - 1,
    )


@dataclass(frozen=True, eq=False)
class WallObstruction:
    """A subdivision of an r-wall inside a host graph, with its branch map."""

    vertices: frozenset[int]
    r: int
    branch_vertices: Mapping[tuple[int, int], int]


def tile_obstructions(model: WallModel, t: int) -> list[WallObstruction]:
    """Cut a wall model into floor(r/(2t+2))^2 disjoint (2t+2)-wall obstructions.

    Blocks of (2t+2) x (2t+2) wall coordinates are walls themselves because
    the block side is even, so the vertical-edge parity is preserved; mapping
    a block through the model keeps the blocks vertex-disjoint because paths
    of distinct wall edges share no interior vertices.
    """
    side = 2 * t + 2
    blocks = model.r // side
    if blocks < 1:
        raise ValueError(f"model of an {model.r}-wall cannot host a {side}-wall block")
    out = []
    for bi in range(blocks):
        for bj in range(blocks):
            xs = range(bi * side + 1, (bi + 1) * side + 1)
            ys = range(bj * side + 1, (bj + 1) * side + 1)
            inside = {(x, y) for x in xs for y in ys}
            verts: set[int] = set()
            branch = {}
            for (x, y) in inside:
                hv = model.branch_vertices[(x, y)]
                branch[(x - bi * side, y - bj * side)] = hv
                verts.add(hv)
            for (a, b), path in model.paths.items():
                if a in inside and b in inside:
                    verts.update(path)
            out.append(WallObstruction(frozenset(verts), side, branch))
    return out


def common_external_killers(f: CnfFormula, obstructions: Sequence[WallObstruction], t: int) -> frozenset[int]:
    """Variables that externally kill every obstruction in the list."""
    if not obstructions:
        raise ValueError("need at least one obstruction")
    common: set[int] | None = None
    for w in obstructions:
        ext = set(killer_set(f, w.vertices).external)
        common = ext if common is None else common & ext
    return frozenset(common)


@dataclass(frozen=True, eq=False)
class ObstructionTemplate:
    """Killer-region bipartite graph over one obstruction.

    regions partition the obstruction's vertices into connected pieces;
    each representative q is tied to one region and to a set of killers.
    """

    wall_vertices: frozenset[int]
    killers: tuple[int, ...]
    t: int
    regions: tuple[frozenset[int], ...]
    q_neighbors: tuple[frozenset[int], ...]
    q_region: tuple[int, ...]


def _rooted(tree_adj: Mapping[int, set[int]], root: int):
    parent: dict[int, int | None] = {root: None}
    depth = {root: 0}
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for v in sorted(tree_adj[u]):
            if v not in parent:
                parent[v] = u
                depth[v] = depth[u] + 1
                order.append(v)
                stack.append(v)
    children = {u: [] for u in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    return parent, children, depth, order


def _subtree_masks(node_mask, children, order) -> dict[int, int]:
    down = {}
    for u in reversed(order):
        m = node_mask[u]
        for c in children[u]:
            m |= down[c]
        down[u] = m
    return down


def build_template(f: CnfFormula, obstruction, killers: Iterable[int], t: int) -> ObstructionTemplate:
    """Peel a rooted spanning tree of the obstruction into regions, emitting
    killer-set representatives per region.

    The peeled subtree always has killer-weight at least the degree budget;
    re-rooting keeps the remainder heavy enough, so every representative ends
    with degree between the budget and three times the budget.
    """
    w_vertices = obstruction.vertices if isinstance(obstruction, WallObstruction) else frozenset(obstruction)
    z_sorted = sorted(set(killers))
    if not z_sorted:
        raise FormulaError("killer set must be nonempty")
    if set(z_sorted) & w_vertices:
        raise FormulaError("killers must be external to the obstruction")
    g = build_incidence(f)
    zindex = {z: i for i, z in enumerate(z_sorted)}
    node_mask: dict[int, int] = {}
    for v in w_vertices:
        m = 0
        for u in g.neighbors(v):
            i = zindex.get(u)
            if i is not None:
                m |= 1 << i
        node_mask[v] = m
    covered = 0
    for m in node_mask.values():
        covered |= m
    if covered.bit_count() != len(z_sorted):
        missing = [z for z in z_sorted if not (covered >> zindex[z]) & 1]
        raise FormulaError(f"killers not adjacent to the obstruction: {missing}")

    # spanning tree, breadth-first from the smallest vertex id
    tree_adj: dict[int, set[int]] = {v: set() for v in w_vertices}
    root = min(w_vertices)
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in sorted(g.neighbors(u)):
            if v in w_vertices and v not in seen:
                seen.add(v)
                tree_adj[u].add(v)
                tree_adj[v].add(u)
                queue.append(v)
    if seen != w_vertices:
        raise FormulaError("obstruction is not connected in the incidence graph")

    nb = degree_budget(t)
    remaining = set(w_vertices)
    regions: list[frozenset[int]] = []
    q_neighbors: list[frozenset[int]] = []
    q_region: list[int] = []

    def ids_of(mask: int) -> frozenset[int]:
        return frozenset(z_sorted[i] for i in range(len(z_sorted)) if (mask >> i) & 1)

    while remaining:
        parent, children, depth, order = _rooted(tree_adj, root)
        down = _subtree_masks(node_mask, children, order)
        total = down[root]
        if total.bit_count() > 3 * nb:
            root = _select_root(tree_adj, node_mask, root, nb)
            parent, children, depth, order = _rooted(tree_adj, root)
            down = _subtree_masks(node_mask, children, order)
            total = down[root]
        if total.bit_count() <= 3 * nb:
            v = root
        else:
            best = None
            for u in order:
                if down[u].bit_count() >= nb:
                    key = (-depth[u], u)
                    if best is None or key < best[0]:
                        best = (key, u)
            v = best[1]
        region = set()
        stack = [v]
        while stack:
            u = stack.pop()
            region.add(u)
            stack.extend(children[u])
        zv_minus = 0
        for c in children[v]:
            zv_minus |= down[c]
        b_mask = down[v] & ~zv_minus
        region_idx = len(regions)
        regions.append(frozenset(region))
        if b_mask == 0:
            if down[v]:
                q_neighbors.append(ids_of(zv_minus))
                q_region.append(region_idx)
        else:
            blist = [z_sorted[i] for i in range(len(z_sorted)) if (b_mask >> i) & 1]
            s = 3 * nb - zv_minus.bit_count()
            if s < 1:  # pragma: no cover - impossible when b_mask is nonempty
                raise AssertionError("block size must be positive")
            shared = ids_of(zv_minus)
            for qi in range(-(-len(blist) // s)):
                block = {blist[(qi * s + off) % len(blist)] for off in range(s)}
                q_neighbors.append(shared | block)
                q_region.append(region_idx)
        if v == root:
            break
        for u in region:
            tree_adj.pop(u, None)
        for u in tree_adj:
            tree_adj[u] -= region
        remaining -= region
    return ObstructionTemplate(
        w_vertices,
        tuple(z_sorted),
        t,
        tuple(regions),
        tuple(q_neighbors),
        tuple(q_region),
    )


def _select_root(tree_adj, node_mask, root, nb) -> int:
    """A root whose every pruned child branch keeps weight at least nb."""
    parent, children, depth, order = _rooted(tree_adj, root)
    down = _subtree_masks(node_mask, children, order)
    total = down[root]
    for u in sorted(tree_adj):
        ok = True
        for c in tree_adj[u]:
            if parent.get(c) == u:
                side = total & ~down[c]
            else:
                side = down[u]
            if side.bit_count() < nb:
                ok = False
                break
        if ok:
            return u
    raise FormulaError("no admissible root; killer weight too small for re-rooting")


@dataclass(frozen=True)
class TemplateReport:
    ok: bool
    checks: Mapping[str, tuple[bool, object]]

    def __bool__(self) -> bool:
        return self.ok


def validate_template(f: CnfFormula, template: ObstructionTemplate) -> TemplateReport:
    """Check the five validity properties plus the region partition itself.

    only_existing_edges: representative neighborhoods stay inside the region's
    graph neighborhood. private_neighbor: each representative owns a killer no
    same-region sibling touches. killer_degree: every killer is used.
    rep_degree: representative degrees lie within [budget, 3*budget].
    vulnerable_vertex: at most one region vertex sees killers outside the
    representative's neighborhood.
    """
    g = build_incidence(f)
    nb = degree_budget(template.t)
    z_set = set(template.killers)
    checks: dict[str, tuple[bool, object]] = {}

    union = set()
    disjoint = True
    connected = True
    witness_region = None
    sub = g.subgraph(template.wall_vertices)
    for idx, region in enumerate(template.regions):
        if union & region:
            disjoint = False
            witness_region = idx
        union |= region
        seen = set()
        start = min(region)
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for x in sub.neighbors(u):
                if x in region and x not in seen:
                    seen.add(x)
                    stack.append(x)
        if seen != set(region):
            connected = False
            witness_region = idx
    partition_ok = disjoint and union == set(template.wall_vertices)
    checks["regions_partition"] = (partition_ok, witness_region)
    checks["regions_connected"] = (connected, witness_region)

    ok1, wit1 = True, None
    for qi, nbrs in enumerate(template.q_neighbors):
        region = template.regions[template.q_region[qi]]
        region_nbh = set()
        for v in region:
            region_nbh |= g.neighbors(v)
        region_nbh -= set(region)
        if not nbrs <= region_nbh:
            ok1, wit1 = False, qi
            break
    checks["only_existing_edges"] = (ok1, wit1)

    ok2, wit2 = True, None
    for qi, nbrs in enumerate(template.q_neighbors):
        same_region = [
            qj
            for qj in range(len(template.q_neighbors))
            if qj != qi and template.q_region[qj] == template.q_region[qi]
        ]
        if not any(
            all(z not in template.q_neighbors[qj] for qj in same_region) for z in nbrs
        ):
            ok2, wit2 = False, qi
            break
    checks["private_neighbor"] = (ok2, wit2)

    ok3, wit3 = True, None
    for z in template.killers:
        if not any(z in nbrs for nbrs in template.q_neighbors):
            ok3, wit3 = False, z
            break
    checks["killer_degree"] = (ok3, wit3)

    ok4, wit4 = True, None
    for qi, nbrs in enumerate(template.q_neighbors):
        if not nb <= len(nbrs) <= 3 * nb:
            ok4, wit4 = False, qi
            break
    checks["rep_degree"] = (ok4, wit4)

    ok5, wit5 = True, None
    for qi, nbrs in enumerate(template.q_neighbors):
        region = template.regions[template.q_region[qi]]
        vulnerable = [
            v for v in region if not (set(g.neighbors(v)) & z_set) <= nbrs
        ]
        if len(vulnerable) > 1:
            ok5, wit5 = False, (qi, sorted(vulnerable)[:2])
            break
    checks["vulnerable_vertex"] = (ok5, wit5)

    return TemplateReport(all(ok for ok, _ in checks.values()), checks)


def template_to_json(template: ObstructionTemplate, report: TemplateReport | None = None) -> dict:
    """JSON-ready dump: regions as vertex lists, representative adjacency, checks."""
    out = {
        "t": template.t,
        "killers": list(template.killers),
        "regions": [sorted(r) for r in template.regions],
        "representatives": [
            {"region": template.q_region[qi], "killers": sorted(nbrs)}
            for qi, nbrs in enumerate(template.q_neighbors)
        ],
    }
    if report is not None:
        out["checks"] = {name: ok for name, (ok, _) in report.checks.items()}
    return out


# ---------------------------------------------------------------------------
# merged template graphs and the selection rules


@dataclass(frozen=True, eq=False)
class MergedTemplateGraph:
    """Union of templates over a shared killer side; representative ids are
    (template index, representative index) pairs."""

    killers: tuple[int, ...]
    q_ids: tuple[tuple[int, int], ...]
    neighbors: Mapping[tuple[int, int], frozenset[int]]


def merge_templates(templates: Sequence[ObstructionTemplate]) -> MergedTemplateGraph:
    if not templates:
        raise ValueError("need at least one template")
    killers = templates[0].killers
    for tpl in templates[1:]:
        if tpl.killers != killers:
            raise FormulaError("templates must share the same killer set")
    q_ids = []
    nbrs = {}
    for ti, tpl in enumerate(templates):
        for qi, nb in enumerate(tpl.q_neighbors):
            q_ids.append((ti, qi))
            nbrs[(ti, qi)] = nb
    return MergedTemplateGraph(killers, tuple(q_ids), nbrs)


def dedupe_neighborhoods(merged: MergedTemplateGraph) -> MergedTemplateGraph:
    """Drop representatives with duplicate neighborhoods, keeping the
    lexicographically smallest id of each class."""
    by_nbh: dict[frozenset[int], list[tuple[int, int]]] = {}
    for qid in merged.q_ids:
        by_nbh.setdefault(merged.neighbors[qid], []).append(qid)
    keep = sorted(min(group) for group in by_nbh.values())
    return MergedTemplateGraph(
        merged.killers, tuple(keep), {q: merged.neighbors[q] for q in keep}
    )


def merge_and_dedupe(templates: Sequence[ObstructionTemplate]) -> MergedTemplateGraph:
    return dedupe_neighborhoods(merge_templates(templates))


RULE_FEW_COMMON_KILLERS = "few_common_killers"
RULE_MULTIPLE_NEIGHBORHOODS = "multiple_neighborhoods"
RULE_NO_MULTIPLE_NEIGHBORHOODS = "no_multiple_neighborhoods"


@dataclass(frozen=True)
class RuleOutcome:
    rule: str
    variables: tuple[int, ...]
    witness_q: tuple[tuple[int, int], ...] | None = None


def apply_rules(merged: MergedTemplateGraph, k: int, t: int) -> RuleOutcome:
    """Run the first applicable selection rule on a pre-dedupe merged graph.

    Few killers: take them all. Multiple neighborhoods: a killer set shared as
    the exact neighborhood of more than t*2^k representatives is taken (the
    lexicographically smallest such set). Otherwise: after deduplication, the
    6*k*budget killers of highest degree, ties to the smaller id.
    """
    if k < 1:
        raise ValueError("the selection rules assume k >= 1")
    nb = degree_budget(t)
    cap = 6 * k * nb
    z = merged.killers
    if len(z) <= cap:
        return RuleOutcome(RULE_FEW_COMMON_KILLERS, tuple(z))
    by_nbh: dict[frozenset[int], list[tuple[int, int]]] = {}
    for qid in merged.q_ids:
        by_nbh.setdefault(merged.neighbors[qid], []).append(qid)
    threshold = t * 2**k + 1
    shared = [nbh for nbh, group in by_nbh.items() if len(group) >= threshold]
    if shared:
        chosen = min(shared, key=lambda s: tuple(sorted(s)))
        return RuleOutcome(
            RULE_MULTIPLE_NEIGHBORHOODS,
            tuple(sorted(chosen)),
            tuple(sorted(by_nbh[chosen])),
        )
    deduped = dedupe_neighborhoods(merged)
    deg = {zv: 0 for zv in z}
    for qid in deduped.q_ids:
        for zv in deduped.neighbors[qid]:
            deg[zv] += 1
    top = sorted(z, key=lambda zv: (-deg[zv], zv))[:cap]
    return RuleOutcome(RULE_NO_MULTIPLE_NEIGHBORHOODS, tuple(sorted(top)))


@dataclass(frozen=True, eq=False)
class GuessResult:
    outcome: RuleOutcome
    killers: tuple[int, ...]
    templates: tuple[ObstructionTemplate, ...] | None
    ell: int


def candidate_set_for_guess(
    f: CnfFormula,
    obstruction_group: Sequence[WallObstruction],
    k: int,
    t: int,
    ell: int,
) -> GuessResult:
    """Candidate variables for one guess: a group of obstructions presumed to be
    killed externally by the same ell backdoor variables.

    ell is part of the guess (1 <= ell <= k) and is recorded; the selection
    rules themselves only need the group.
    """
    if not 1 <= ell <= k:
        raise ValueError("ell must satisfy 1 <= ell <= k")
    z = tuple(sorted(common_external_killers(f, obstruction_group, t)))
    nb = degree_budget(t)
    if len(z) <= 6 * k * nb:
        return GuessResult(RuleOutcome(RULE_FEW_COMMON_KILLERS, z), z, None, ell)
    templates = tuple(build_template(f, w, z, t) for w in obstruction_group)
    merged = merge_templates(templates)
    return GuessResult(apply_rules(merged, k, t), z, templates, ell)


def enumerate_guesses(
    obstructions: Sequence[WallObstruction], k: int, t: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """All nondeterministic guesses: which k obstructions may die internally,
    which group of group_size shares its external killers, and how many killer
    variables that is.

    The number of combinations is astronomically large for honest parameters;
    this iterator exists to document the search space and must never be
    materialized. Joining every guess's candidate set would give the full
    candidate union whose size is bounded in the parameters only.
    """
    consts = fpt_constants(k, t)
    idx = range(len(obstructions))
    for internal in combinations(idx, min(k, len(obstructions))):
        rest = [i for i in idx if i not in internal]
        for group in combinations(rest, consts.group_size):
            for ell in range(1, k + 1):
                yield internal, group, ell

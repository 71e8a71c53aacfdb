"""The sparse star (hub + background + exceptions) against the per-node
implementations it replaced, which live on here as references."""

import json
import math
import os
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinstar import (
    SMALLEST,
    DesignInput,
    ReducedParams,
    ResourceLimitError,
    RoutingState,
    EvolutionCache,
    StarEvolution,
    StarSpec,
    build_reduced,
    design,
    min_feasible_even_eta,
    retarget,
)
from spinstar import cli
from spinstar.cli import design_document, render_design
from spinstar.errors import SymmetryError
from spinstar.model import DENSE_MAX_EDGES, POTENTIAL_MATCH_TOL, check_int, check_route

# ---------------------------------------------------------------------------
# Per-node references (the implementations before the sparse form)
# ---------------------------------------------------------------------------


def _check_route_per_node(spec, params, source, target):
    n = spec.edge_count
    if n != params.m + 2:
        raise ValueError(f"edge_count must equal m + 2 = {params.m + 2}, got {n}")
    if abs(spec.coupling - params.c) > 1e-12 * max(1.0, abs(params.c)):
        raise ValueError(f"coupling must equal c = {params.c!r}, got {spec.coupling!r}")
    source = check_int(source, "source", 1, n)
    target = check_int(target, "target", 1, n)
    if source == target:
        raise ValueError("source and target must differ")
    dev = np.fromiter(spec.potentials, float, n + 1)
    want = np.full(n + 1, params.d)
    want[[0, source, target]] = params.a, params.e, params.e
    dev -= want
    np.abs(dev, out=dev)
    limit = np.abs(want)
    np.maximum(limit, 1.0, out=limit)
    limit *= POTENTIAL_MATCH_TOL
    bad = np.flatnonzero(dev > limit)
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"potentials do not realize the route (source={source}, target={target}): "
            f"node {j} carries {spec.potentials[j]!r} where {float(want[j])!r} is required"
        )
    return source, target


def _build_grouped_per_node(spec):
    """(hub, arm couplings, arm values, group of each edge, sizes).  Edges
    group by ``==``, so 0.0 and -0.0 are one group; its value is the first
    of its members that the star lists: the exceptions (edges off the
    background bit for bit) in node order, then the background."""
    edges = np.fromiter(spec.potentials, float, spec.edge_count + 1)[1:]
    ordered = np.sort(edges)
    values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if values.size > DENSE_MAX_EDGES:
        raise ResourceLimitError(f"got k={values.size}")
    group_of = np.searchsorted(values, edges)
    off = edges.view(np.int64) != np.float64(spec.background).view(np.int64)
    listed = np.concatenate((edges[off], edges[~off][:1]))
    groups, first = np.unique(np.searchsorted(values, listed), return_index=True)
    values[groups] = listed[first]
    sizes = np.bincount(group_of, minlength=values.size)
    couplings = (spec.coupling * np.sqrt(sizes)).tolist()
    return spec.potentials[0], couplings, values.tolist(), group_of.tolist(), sizes.tolist()


def _build_reduced_per_node(spec, source, target):
    n = spec.edge_count
    lam = spec.potentials
    bystanders = np.delete(np.arange(n + 1), [0, source, target])
    a, e, d = lam[0], lam[source], lam[int(bystanders[0])]
    params = ReducedParams(a=a, b=math.sqrt(n - 2) * spec.coupling, c=spec.coupling,
                           d=d, e=e, m=n - 2)
    try:
        _check_route_per_node(spec, params, source, target)
    except ValueError as exc:
        raise SymmetryError(f"the four-level reduction does not apply: {exc}") from exc
    return a, e, d


def _render_design_by_unique(doc):
    potentials = doc["potentials"]
    bits = np.fromiter(potentials, float, len(potentials)).view(np.int64)
    distinct, which = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.view(float).tolist())), dtype=object)
    key = '\n  "potentials": '
    head, tail = json.dumps({**doc, "potentials": []}, indent=2).split(key + "[]")
    items = ",\n    ".join(texts[which].tolist())
    return "".join((head, key, "[\n    ", items, "\n  ]", tail, "\n"))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, SymmetryError, ResourceLimitError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# Random stars
# ---------------------------------------------------------------------------

_BASE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, 0.1, -1.0 / 3.0]),
                  st.floats(-1e6, 1e6))


@st.composite
def _stars(draw):
    """(edge_count, coupling, per-node potentials): edges drawn from a
    palette with signed zeros and nextafter neighbours, or all equal, all
    distinct, or a routed design with a few nodes nudged by one ulp."""
    n = draw(st.one_of(st.integers(3, 40), st.integers(3, 10**4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(_BASE)
    near = [x, float(np.nextafter(x, np.inf)), float(np.nextafter(x, -np.inf))]
    kind = draw(st.sampled_from(["palette", "equal", "distinct", "routed"]))
    if kind == "palette":
        palette = np.array([0.0, -0.0, *near, *draw(st.lists(_BASE, max_size=4))])
        edges = palette[rng.integers(0, palette.size, n)]
    elif kind == "equal":
        edges = np.full(n, x)
    elif kind == "distinct":
        edges = x + np.arange(n) * max(1.0, abs(x)) * 1e-3
    else:
        edges = np.full(n, x)
        edges[rng.choice(n, size=2, replace=False)] = draw(_BASE)
        nudged = rng.choice(n, size=min(n, draw(st.integers(0, 3))), replace=False)
        edges[nudged] = np.nextafter(edges[nudged], np.inf)
    hub = draw(st.one_of(st.sampled_from(near), _BASE))
    coupling = draw(st.floats(0.1, 3.0))
    return n, coupling, [hub, *edges.tolist()]


@settings(deadline=None, derandomize=True, max_examples=100)
@given(star=_stars(), route=st.tuples(st.integers(0, 10**4), st.integers(0, 10**4)),
       picks=st.one_of(st.none(), st.lists(st.integers(0, 10**4), min_size=3, max_size=3)))
@example(star=(4, 1.0, [0.0, -0.0, 0.0, -0.0, 0.0]), route=(0, 0), picks=None)
@example(star=(3, 1.0, [1.0, 2.0, 2.0, 2.0]), route=(2, 0), picks=[0, 1, 1])
def test_sparse_star_matches_per_node_references(star, route, picks):
    n, coupling, pots = star
    spec = StarSpec(n, coupling, pots)

    # the per-node tuple, bit for bit, and the parts it came from
    assert [x.hex() for x in spec.potentials] == [float(x).hex() for x in pots]
    nodes = [j for j, _ in spec.exceptions]
    assert nodes == sorted(set(nodes)) and all(1 <= j <= n for j in nodes)
    assert all(value.hex() != spec.background.hex() for _, value in spec.exceptions)
    assert [spec.potential(j).hex() for j in range(n + 1)] == [x.hex() for x in spec.potentials]
    rebuilt = StarSpec.sparse(n, coupling, spec.hub, spec.background, spec.exceptions)
    assert rebuilt._parts() == spec._parts() and rebuilt == spec

    # grouping, and the bright eigensystem bit for bit against the solve of
    # the reference's arrowhead
    want = _outcome(_build_grouped_per_node, spec)
    got = _outcome(StarEvolution.from_spec, spec)
    assert got[0] == want[0]
    if got[0] == "ok":
        star, (hub, couplings, values, group_of, sizes) = got[1], want[1]
        assert [x.hex() for x in star.levels] == [x.hex() for x in values]
        assert list(star.sizes) == sizes
        assert [star.exception_groups.get(j, star.background_group)
                for j in range(1, n + 1)] == group_of
        h = np.diag([hub, *values])
        h[0, 1:] = h[1:, 0] = couplings
        reference = EvolutionCache.from_hamiltonian(h)
        assert star.bright.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
        assert star.bright.eigenvectors.tobytes() == reference.eigenvectors.tobytes()

    # the route rule, against the values the star carries at the route and
    # at its first bystander (picks=None) or at three drawn nodes
    source = 1 + route[0] % n
    target = 1 + (source + route[1] % (n - 1)) % n
    if picks is None:
        bystander = min({1, 2, 3} - {source, target})
        picks = [0, source, bystander]
    a, e, d = (spec.potentials[p % (n + 1)] for p in picks)
    params = ReducedParams(a=a, b=math.sqrt(n - 2) * coupling, c=coupling, d=d, e=e, m=n - 2)
    assert _outcome(check_route, spec, params, source, target) == \
        _outcome(_check_route_per_node, spec, params, source, target)

    # the four-level reduction
    got = _outcome(build_reduced, spec, source, target)
    want = _outcome(_build_reduced_per_node, spec, source, target)
    if want[0] == "ok":
        assert got[0] == "ok"
        assert [x.hex() for x in (got[1].a, got[1].e, got[1].d)] == [x.hex() for x in want[1]]
    else:
        assert got == want

    # the design file encoding, from the star and from its sparse rebuild,
    # against the reference encoder of the plain list
    sol = design(DesignInput(m=2, eta=4))
    doc = {**design_document(sol, 1, 2, sol.realized, SMALLEST), "potentials": pots}
    reference = json.dumps(doc, indent=2) + "\n"
    assert render_design({**doc, "potentials": rebuilt}) == reference
    assert render_design({**doc, "potentials": spec}) == reference
    assert _render_design_by_unique(doc) == reference


def _hex_parts(spec):
    n, coupling, hub, background, exceptions = spec._parts()
    return n, coupling.hex(), hub.hex(), background.hex(), [(j, v.hex()) for j, v in exceptions]


@settings(deadline=None, derandomize=True, max_examples=100)
@given(star=_stars(), nodes=st.lists(st.integers(0, 10**4), max_size=6), data=st.data())
def test_replace_is_the_sparse_star_of_the_merged_pairs(star, nodes, data):
    n, coupling, pots = star
    spec = StarSpec(n, coupling, pots)
    bg = spec.background
    palette = [bg, -bg, 0.0, -0.0, float(np.nextafter(bg, np.inf)), spec.hub,
               *(value for _, value in spec.exceptions)]
    values = {1 + j % n: data.draw(st.one_of(st.sampled_from(palette), _BASE)) for j in nodes}
    got = spec.replace(values)

    # bit for bit the sparse star of the merged (node, value) pairs
    merged = {**dict(spec.exceptions), **values}
    want = StarSpec.sparse(n, coupling, spec.hub, bg, sorted(merged.items()))
    assert _hex_parts(got) == _hex_parts(want)

    # equal to the star rebuilt node by node, and bit for bit per node
    per_node = list(spec.potentials)
    for j, value in values.items():
        per_node[j] = value
    assert got == StarSpec(n, coupling, per_node)
    assert [x.hex() for x in got.potentials] == [float(x).hex() for x in per_node]

    # a value equal to the background bit for bit drops out; 0.0 and -0.0 stay apart
    kept = dict(got.exceptions)
    for j, value in values.items():
        assert (j in kept) == (value.hex() != bg.hex())
    for zero in (0.0, -0.0):
        replaced = spec.replace({1: zero})
        assert replaced.potential(1).hex() == zero.hex()
        assert (1 in dict(replaced.exceptions)) == (zero.hex() != bg.hex())

    # bad nodes and values
    for node in (True, False, 0, n + 1, -1, 1.0):
        with pytest.raises(ValueError, match="node"):
            spec.replace({node: 1.0})
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="potentials must all be finite"):
            spec.replace({n: value})


@pytest.mark.parametrize("m", [1, 2, 7, 1000])
def test_designed_and_retargeted_stars_have_two_exceptions(m):
    sol = design(DesignInput(m=m, eta=min_feasible_even_eta(m)))
    e, d = sol.params.e, sol.params.d
    assert sol.realized.background == d
    assert sol.realized.exceptions == ((1, e), (2, e))
    moved = retarget(RoutingState(sol, 1, 2, sol.realized), m + 2).realized_spec
    assert moved.background == d and moved.exceptions == ((1, e), (m + 2, e))
    # read node by node, the star splits into at most two exceptions too
    read = StarSpec(m + 2, 1.0, moved.potentials)
    assert len(read.exceptions) <= 2 and read == moved


def test_design_and_retarget_run_in_constant_memory():
    m = 10**6
    eta = min_feasible_even_eta(m)
    small = design(DesignInput(m=2, eta=4))
    retarget(RoutingState(small, 1, 2, small.realized), 3)  # imports and caches
    tracemalloc.start()
    try:
        sol = design(DesignInput(m=m, eta=eta))
        state = retarget(RoutingState(sol, 1, 2, sol.realized), 777_777)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.target == 777_777
    assert peak < 64 * 1024


def _calls_and_peak(make):
    """The operation ``make()`` returns, made and run twice: once under
    ``sys.setprofile``, counting the calls into ``spinstar`` code (function
    entries and generator resumes), once under ``tracemalloc`` for its
    peak.  Each run gets a fresh operation, so no cached attribute carries
    work over from an earlier run."""
    package = os.path.dirname(cli.__file__)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    op = make()
    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    op = make()
    tracemalloc.start()
    try:
        op()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return calls, peak


def _exception_ops(m, k):
    """Each operation that claims ``O(len(exceptions))``, on a fresh star:
    the design at ``m`` wired 1 -> 2 with ``k`` bystanders one ulp above the
    background, so the route rule still holds."""
    sol = design(DesignInput(m=m, eta=min_feasible_even_eta(m)))
    p = sol.params
    bump = float(np.nextafter(p.d, np.inf))
    pairs = [(1, p.e), (2, p.e)] + [(j, bump) for j in range(3, k + 3)]
    spec = StarSpec.sparse(m + 2, p.c, p.a, p.d, pairs)
    # its own star: constructing the state runs the route rule on it
    state = RoutingState(base=sol, source=1, target=2,
                         realized_spec=StarSpec.sparse(m + 2, p.c, p.a, p.d, pairs))
    doc = design_document(sol, 1, 2, spec, SMALLEST)
    return {
        "StarSpec.sparse": lambda: StarSpec.sparse(m + 2, p.c, p.a, p.d, pairs),
        "StarSpec.replace": lambda: spec.replace({2: bump, k + 3: p.e}),
        "check_route": lambda: check_route(spec, p, 1, 2),
        "build_reduced": lambda: build_reduced(spec, 1, 2),
        "RoutingState": lambda: RoutingState(base=sol, source=1, target=2, realized_spec=spec),
        "retarget": lambda: retarget(state, k + 3),
        "cli._blocks": lambda: deque(cli._blocks(doc), maxlen=0),
    }


def test_sparse_paths_scale_with_exceptions_not_m():
    costs = {}
    for m in (10**4, 10**6):
        for k in (64, 128):
            ops = _exception_ops(m, k)
            for name, op in ops.items():
                op()  # warm up
                costs[name, m, k] = _calls_and_peak(lambda: _exception_ops(m, k)[name])
    for name in ops:
        for k in (64, 128):
            (calls, peak), (calls6, peak6) = costs[name, 10**4, k], costs[name, 10**6, k]
            assert calls6 == calls, (name, k)
            # One float per node is 8 MB at m = 10**6.
            assert abs(peak6 - peak) <= 8192, (name, k, peak, peak6)
        assert costs[name, 10**4, 128][0] <= 2 * costs[name, 10**4, 64][0] + 8, name

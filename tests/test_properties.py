"""Corpus-level invariants over every isomorphism class of small orders."""

import random

import pytest

from chromastab import chromatic, families, generate, kernels
from chromastab.graph import bits

from conftest import JOBS

MAX_ORDER = 8


@pytest.fixture(scope="module")
def class_values():
    """{order: [(delta, chi, vs, ivs), ...]} over every class of order <= 8."""
    values = {order: [] for order in range(1, MAX_ORDER + 1)}
    for order, _key, _rows, (_stage, vals) in generate.walk(
        MAX_ORDER, None, chromatic.profile, JOBS
    ):
        values[order].append(vals)
    return values


def test_stability_inequalities_everywhere(class_values):
    for order in range(1, MAX_ORDER + 1):
        for delta, chi, vs, ivs in class_values[order]:
            assert vs <= ivs
            assert order >= ivs * chi


def test_degree_two_graphs_have_equal_parameters(class_values):
    # includes disconnected unions of paths and cycles
    checked = 0
    for order in range(1, MAX_ORDER + 1):
        for delta, chi, vs, ivs in class_values[order]:
            if delta <= 2:
                assert vs == ivs
                checked += 1
    assert checked > 100


def test_chi_near_max_degree_forces_equality(class_values):
    # known result: chi in {max_degree, max_degree + 1} forces equal
    # stability parameters
    checked = 0
    for order in range(1, MAX_ORDER + 1):
        for delta, chi, vs, ivs in class_values[order]:
            if chi in (delta, delta + 1):
                assert vs == ivs
                checked += 1
    assert checked > 1000


def test_bipartizing_partners_are_neighbours(s9_catalog):
    kern = kernels.active()
    for g in s9_catalog.graphs():
        core = chromatic.bipartizing_pair_vertices(g)
        for x in bits(core):
            for y in range(g.n):
                if y == x:
                    continue
                mask = 1 << x | 1 << y
                drops = kern.deletion_colorable(g.n, g.rows, mask, 2) and not (
                    kern.deletion_colorable(g.n, g.rows, mask, 1)
                )
                if drops:
                    assert g.has_edge(x, y)


def test_subdivision_preserves_membership_beyond_catalog(s9_catalog):
    # randomized plans on the order-10 base graph as well (not in the catalog)
    rng = random.Random(11)
    hosts = [families.g9(), families.g10()] + s9_catalog.graphs()[:3]
    for i in range(20):
        host = hosts[i % len(hosts)]
        core = chromatic.bipartizing_pair_vertices(host)
        eligible = [
            e for e in host.edges() if not (core >> e[0] & 1 and core >> e[1] & 1)
        ]
        rng.shuffle(eligible)
        plan = [(e, 2 * rng.randint(1, 2)) for e in eligible[: rng.randint(1, 2)]]
        out = families.subdivide_family(host, plan)
        assert chromatic.profile(out.rows)[1] == (4, 3, 2, 3)


def test_catalog_members_have_degree_four_witness_pairs(s9_catalog):
    graphs = dict(zip(s9_catalog.keys(), s9_catalog.graphs()))
    for entry in s9_catalog.entries:
        assert entry.report.max_degree == 4
        g = graphs[entry.key]
        for pair in entry.report.vertex_stability_witnesses:
            assert [g.degree(v) for v in pair] == [4, 4]

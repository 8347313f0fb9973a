import hashlib

import pytest

from oracles import brute_uqw
from sparsekit.errors import (AlgorithmStallError, CapabilityError,
                              PreconditionError)
from sparsekit.graph import Graph
from sparsekit.graphio import (complete_graph, cycle_graph, emit_json,
                               gnd_graph, grid_graph, path_graph, random_tree,
                               star_graph)
from sparsekit.orders import (degeneracy_order, identity_order, wcol_of_order,
                              wreach_clusters, wreach_sets)
from sparsekit.rng import Rng
from sparsekit.wideness import (Cover, PartitionCover, SeparatorCertificate,
                                UqwCertificate, balanced_separator,
                                neighborhood_cover, partition_cover,
                                uqw_brute, uqw_extract, validate_cover,
                                validate_partition, validate_separator,
                                validate_uqw)


# ------------------------------------------------------------ uqw extraction

def test_uqw_extract_path_frozen():
    g = path_graph(10)
    cert = uqw_extract(g, range(10), 2, 2, identity_order(10))
    assert sorted(cert.S) == [0, 1]
    assert sorted(cert.B) == [2, 5, 8]
    assert cert.wcol_bound == 3
    assert cert.guarantee_applies is False
    assert cert.verified


def test_uqw_extract_star_deletes_center():
    g = star_graph(100)
    cert = uqw_extract(g, range(100), 1, 3, identity_order(100))
    assert sorted(cert.S) == [0]
    assert len(cert.B) == 99
    assert cert.verified


def test_uqw_extract_guarantee_case():
    # |A| = 256 = 4*(2*2*2)^2 meets the bound exactly for c = 2, m = 2
    g = path_graph(256)
    cert = uqw_extract(g, range(256), 1, 2, degeneracy_order(g))
    assert cert.wcol_bound == 2
    assert cert.guarantee_applies is True
    assert cert.S == frozenset()
    assert len(cert.B) == 128
    assert cert.verified


def test_uqw_extract_preconditions():
    g = path_graph(5)
    with pytest.raises(PreconditionError):
        uqw_extract(g, [], 1, 2, identity_order(5))
    with pytest.raises(PreconditionError):
        uqw_extract(g, [0, 1], 0, 2, identity_order(5))


def test_uqw_brute_frozen():
    g = path_graph(10)
    cert = uqw_brute(g, range(10), 2, 4, s_max=0)
    assert sorted(cert.S) == [] and sorted(cert.B) == [0, 3, 6, 9]
    # any 2 of K5 stay adjacent no matter which 3 vertices go
    assert uqw_brute(complete_graph(5), range(5), 1, 2, s_max=3) is None
    cert = uqw_brute(cycle_graph(12), range(12), 2, 4, s_max=1)
    assert sorted(cert.S) == [] and sorted(cert.B) == [0, 3, 6, 9]


def test_uqw_brute_caps():
    with pytest.raises(CapabilityError) as e:
        uqw_brute(path_graph(19), range(19), 1, 2, s_max=1)
    assert e.value.cap_name == "uqw_brute_n"
    with pytest.raises(CapabilityError) as e:
        uqw_brute(path_graph(10), range(10), 1, 2, s_max=4)
    assert e.value.cap_name == "uqw_brute_s"


def test_uqw_brute_never_worse_than_extraction():
    for g in (path_graph(12), cycle_graph(11), grid_graph(3, 4)):
        pi = degeneracy_order(g)
        got = uqw_extract(g, range(g.n), 1, 2, pi)
        ref = uqw_brute(g, range(g.n), 1, len(got.B), s_max=len(got.S))
        assert ref is not None and len(ref.B) >= len(got.B)


# sha256 of emit_json(cert.to_json()) for uqw_brute(g, A, r, 1, s_max=3),
# taken when uqw_brute searched each S with a memoized maximum independent
# set; A is every vertex ("all") or the vertices not 1 mod 3.
PINNED_UQW_BRUTE = {
    ("path18", 1, "all"): "bed10b395315393ca3b4bdfb6f6d04eb6c461bef7d347008879dbfa3e7c4b4c4",
    ("path18", 1, "not1mod3"): "0cd733f4f1a06ce244b32a3849d7e09e1d9b77dfd3652036a53c72452c1dfd0d",
    ("path18", 2, "all"): "c396d35151fe4a78ffe75a3fae4d752b2d97d3a99c27fce84e687abb0f8deaf0",
    ("path18", 2, "not1mod3"): "e2eee18f5228b538fac3e55ea3f1554fc5d19234273cf8b86cf429854f0e4fab",
    ("cycle18", 1, "all"): "bed10b395315393ca3b4bdfb6f6d04eb6c461bef7d347008879dbfa3e7c4b4c4",
    ("cycle18", 1, "not1mod3"): "def06f7008e78abb12078fccd7ba0f3fad2e43e97c74b5838559ea29f0676d97",
    ("cycle18", 2, "all"): "6bd091fb421e6cfefe824b60f186d65a4821c9bf7ed2fb376b77c7e8794925bf",
    ("cycle18", 2, "not1mod3"): "16b1278b1f9d897200e95d99a2f5dbb9578ab3f54fb43e6e303eeb18f2b50daa",
    ("grid3x6", 1, "all"): "5f6e278716d3b54ab7254e80278d14ad4bf072f0bc9a6144279ee29a88e38f1d",
    ("grid3x6", 1, "not1mod3"): "4c9e64dbe5b1bdebbd5fc3798f88ed4a8e40c5eb49bf19bc1962395a83521d9f",
    ("grid3x6", 2, "all"): "98617283d5bf064bb269fcdd966c50ab634c9795f1fe5ef1969335c6023d7812",
    ("grid3x6", 2, "not1mod3"): "87e6af347ad62807e3f8b2bb08b38b27e765514bd5000dc12168c4dd96c9bd5d",
    ("triangles6", 1, "all"): "dde4e60890a0715f69f43cad5902c100fab9fa84a64aa22390c8f755603e85af",
    ("triangles6", 1, "not1mod3"): "7b521217112e50950291d7612fee2ecb9a8442c5aa11a52d93853a2c8992fe92",
    ("triangles6", 2, "all"): "04f4c3cfeab14f699e1fe378ac74eadecfbec6e3be8bcf0031581772454d98fc",
    ("triangles6", 2, "not1mod3"): "16b1278b1f9d897200e95d99a2f5dbb9578ab3f54fb43e6e303eeb18f2b50daa",
    ("tree18", 1, "all"): "75751d7170853ec3b208257507a892522594bdf91bb4b2610e40c16a36b25a03",
    ("tree18", 1, "not1mod3"): "06533da8a7ac4e054af4fd1f5789b68d9ed242c885a473ceaed6ee4d12f2caa2",
    ("tree18", 2, "all"): "b7afa9088e3a92416a8d6aec06608c9999bfe19ae70788afd26bad4520aa9431",
    ("tree18", 2, "not1mod3"): "167b71185fd683ddaa5f2af1ed40faee99dedbaa324d1cf9c9366bb989c96799",
    ("gnd18", 1, "all"): "f9c5fe49570e22e6953da24b96febe9baa6e30e0442b010be095780e38c64385",
    ("gnd18", 1, "not1mod3"): "6ac61717b8966e77bb9a92402474462f6a680f7bbe2f7d133257992d0258d89f",
    ("gnd18", 2, "all"): "7aba5a4e5642d840b2fab8fa4230221f644fccb86cebd02185beeebefc516f6d",
    ("gnd18", 2, "not1mod3"): "4d06770d00a6ffe1a4182039b9e154ba176619f2e3ce7a70990afef64b3275fc",
}


def test_uqw_brute_pinned():
    triangles = Graph(18, [(3 * i + a, 3 * i + b) for i in range(6)
                           for a, b in ((0, 1), (0, 2), (1, 2))])
    graphs = {"path18": path_graph(18), "cycle18": cycle_graph(18),
              "grid3x6": grid_graph(3, 6), "triangles6": triangles,
              "tree18": random_tree(18, seed=5), "gnd18": gnd_graph(18, 3.0, seed=1)}
    for (name, r, target), want in PINNED_UQW_BRUTE.items():
        g = graphs[name]
        A = range(g.n) if target == "all" else [v for v in range(g.n) if v % 3 != 1]
        cert = uqw_brute(g, A, r, 1, s_max=3)
        got = hashlib.sha256(emit_json(cert.to_json()).encode()).hexdigest()
        assert got == want, (name, r, target)


def test_uqw_brute_matches_brute_force(corpus_small):
    rng = Rng(7)
    graphs = corpus_small[::40] + [path_graph(10), cycle_graph(10), grid_graph(2, 5),
                                   random_tree(10, seed=3), star_graph(9)]
    for g in graphs:
        subset = [v for v in range(g.n) if rng.next_float() < 0.6] or [0]
        for A in (range(g.n), subset):
            for r in (1, 2, 3):
                for s_max in (0, 1, 2):
                    S, B = brute_uqw(g, frozenset(A), r, s_max)
                    for m in (len(B), len(B) + 1):
                        cert = uqw_brute(g, A, r, m, s_max)
                        got = None if cert is None else (cert.S, cert.B)
                        want = (S, B) if m <= len(B) else None
                        assert got == want, (sorted(g.edges()), list(A), r, s_max, m)


def test_validate_uqw_rejects():
    g = path_graph(6)
    A = frozenset(range(6))
    close = UqwCertificate(2, 2, A, frozenset(), frozenset({0, 1}), 3, False)
    assert any("apart" in v for v in validate_uqw(g, close))
    assert close.verified is False
    overlap = UqwCertificate(2, 2, A, frozenset({0}), frozenset({0, 4}), 3, False)
    assert any("overlap" in v for v in validate_uqw(g, overlap))
    outside = UqwCertificate(2, 2, A, frozenset(), frozenset({7}), 3, False)
    assert any("contained" in v for v in validate_uqw(g, outside))
    # a guarantee claim makes the size bounds part of the certificate
    weak = UqwCertificate(2, 3, A, frozenset({0, 1, 2, 3}), frozenset({5}), 3, True)
    bad = validate_uqw(g, weak)
    assert any("exceeds" in v for v in bad) and any("below" in v for v in bad)


def test_uqw_json_round_trip():
    g = path_graph(10)
    cert = uqw_extract(g, range(10), 2, 2, identity_order(10))
    back = UqwCertificate.from_json(cert.to_json())
    assert back.to_json() == cert.to_json()
    assert validate_uqw(g, back) == []


# ------------------------------------------------------- balanced separators

def test_separator_star_frozen():
    g = star_graph(100)
    cert = balanced_separator(g, range(100), 1, 0.1, identity_order(100))
    assert sorted(cert.S) == [0]
    assert cert.worst_ball_count == 1
    assert cert.worst_ball_fraction == pytest.approx(0.01)
    assert cert.iterations == 1
    assert cert.verified


def test_separator_star_trivial_eps():
    g = star_graph(100)
    cert = balanced_separator(g, range(100), 1, 1.0, identity_order(100))
    assert cert.S == frozenset()
    assert cert.verified


def test_separator_may_stop_with_everything_deleted():
    # below the theory threshold the exchange loop may stall immediately;
    # S = V is then still a valid (if useless) certificate
    g = path_graph(10)
    cert = balanced_separator(g, range(10), 1, 1.0, identity_order(10))
    assert cert.S == frozenset(range(10))
    assert cert.iterations == 0
    assert cert.worst_ball_count == 0
    assert cert.verified


def test_separator_on_trees_and_grids():
    import random
    rnd = random.Random(7)
    edges = [(v, rnd.randint(0, v - 1)) for v in range(1, 60)]
    tree = Graph(60, edges)
    for g in (tree, grid_graph(5, 5)):
        pi = degeneracy_order(g)
        for r, eps in ((1, 0.5), (1, 0.2), (2, 0.5)):
            cert = balanced_separator(g, range(g.n), r, eps, pi)
            assert cert.verified
            assert cert.worst_ball_count <= eps * g.n


def test_separator_preconditions():
    g = path_graph(5)
    pi = identity_order(5)
    with pytest.raises(PreconditionError):
        balanced_separator(g, [], 1, 0.5, pi)
    with pytest.raises(PreconditionError):
        balanced_separator(g, range(5), 0, 0.5, pi)
    with pytest.raises(PreconditionError):
        balanced_separator(g, range(5), 1, 0.0, pi)
    with pytest.raises(PreconditionError):
        balanced_separator(g, range(5), 1, 1.5, pi)


def test_validate_separator_rejects():
    g = star_graph(10)
    A = frozenset(range(10))
    lying = SeparatorCertificate(1, 0.1, A, frozenset(), 0, 0)
    bad = validate_separator(g, lying)
    assert any("measured" in v for v in bad)
    assert any("above eps" in v for v in bad)
    assert lying.verified is False


def test_separator_json_round_trip():
    g = star_graph(20)
    cert = balanced_separator(g, range(20), 1, 0.2, identity_order(20))
    back = SeparatorCertificate.from_json(cert.to_json())
    assert back.to_json() == cert.to_json()
    assert validate_separator(g, back) == []


# ------------------------------------------------- pinned certificate bytes

PIN_GRAPHS = {
    "grid12": lambda: grid_graph(12, 12),
    "tree300": lambda: random_tree(300, seed=1),
    "gnd300": lambda: gnd_graph(300, 3.0, seed=1),
    "tree2000": lambda: random_tree(2000, seed=1),
    "grid30": lambda: grid_graph(30, 30),
}

# sha256 of emit_json(cert.to_json()), degeneracy order, A = all vertices.
# A "uqw" case is the first extraction of the separator with the same r and
# eps (radius 4r, m = int(1/eps) + wcol_4r + 1); unlike a plain small-m
# extraction on these graphs, it deletes vertices.
PINNED_CERTIFICATES = {
    ("grid12", "uqw", 1, 0.1): "7d67575b4e7eb274d8ffa8c1e89e9e262e01cdd45ff49929b701afc36fe593c7",
    ("grid12", "uqw", 1, 0.2): "c8542be5a8ade162c415cbfdcbdfce1d514f30edd3575cc91513fd600fdf7315",
    ("grid12", "uqw", 2, 0.1): "df22fd7f1509980ae69ec00401f485039c0725f565df9208bdac4456ab00cfad",
    ("grid12", "uqw", 2, 0.2): "ffcaca03e2a70517aed0aea497d9993fce4e3e96387743aa2434172d02e28e92",
    ("tree300", "uqw", 1, 0.1): "e34690d02c0bca6d87a81cfea7d8563eece76b1810225f055ca261a0b390a8b5",
    ("tree300", "uqw", 1, 0.2): "635d17e7bb09f78231fbd9e0fb233c64287ef8c354000587c8f9c36e5f9629df",
    ("tree300", "uqw", 2, 0.1): "2626d03ee2d0189b603f45deaece4d3c9545bd3827203edd954554ca752777a7",
    ("tree300", "uqw", 2, 0.2): "f4f305c1456869efff860effaf67eb8e5fe946290e91429823bdc91bd882a5e5",
    ("gnd300", "uqw", 1, 0.1): "8da9026d69b2a5f521d1b3218694896b354a4305e84a117482c86c573c74af6f",
    ("gnd300", "uqw", 1, 0.2): "fbf1726d5b19f4f7f2d10d5475bcb59bc304b5bb076d1efaa077fe070aa9af5f",
    ("gnd300", "uqw", 2, 0.1): "082208e1483bebfdea6481677c0fee1984ff505f9efbb3e2a0f4e10a639e2367",
    ("gnd300", "uqw", 2, 0.2): "165319e69336dbfa2336cfda02d251ee73bdf346999cfd7aa39147a77e8bb13e",
    ("grid12", "separator", 1, 0.1): "cde9ef462a62c25adecb2a85432ea6992110b52a8849d80e1896192172e3046a",
    ("grid12", "separator", 1, 0.2): "9947ab9a055d12b9f1be48f3fcd3b417b30faa8d95c03ced7e5ca7112e2994f1",
    ("grid12", "separator", 2, 0.1): "cf1da1c8438d1ea9629bb390a1189e1e360067192e5e3ee1ed1e1982b37f16f9",
    ("grid12", "separator", 2, 0.2): "58bb968790c8efa9bf7d232552d254482d5892a3ea1b1fffa53ce8071f41e5d7",
    ("tree300", "separator", 1, 0.1): "c31b8d080790160c67b3672fd535e892874462bcd6dd7c46ee5f06cc5b312240",
    ("tree300", "separator", 1, 0.2): "544407781ba417bad21e04cbe861b843974b3bd429a7b0fe54ce15dbb660ec27",
    ("tree300", "separator", 2, 0.1): "abc537f45afe4d6950435ba5417456784a12fcc21391a3863b1f667e092fb71f",
    ("tree300", "separator", 2, 0.2): "5c03ed28651516216d2bc88cf0a4ac1e03fc5be635625da3d50200d85c5296b0",
    ("gnd300", "separator", 1, 0.1): "4d076e3f5d70e57c2811de69a642c2dc78fd501a8f6584f953f20f55a1243b45",
    ("gnd300", "separator", 1, 0.2): "39fe8f769e3c119418e93a778c3518dd44a73f71af0e1ed9eb96b562e5b3960c",
    ("gnd300", "separator", 2, 0.1): "abaa3c46d47bdc9e8d17d63730075ca957a9e8fa42d422aa6311a5698eb76ab8",
    ("gnd300", "separator", 2, 0.2): "fc2ffe980e595bba140838e91e8ca245a79566b2a97d289634e0f65592e24006",
    ("tree2000", "separator", 1, 0.1): "ea90a93b1032ffe9d54312c5103f3ccbd0e731399671ad0cb2babd0aa9eee042",
    ("tree2000", "separator", 1, 0.2): "5c1e2cff2ebcef54c87231c333d50eae29ceb485ed746d7ff66ffbb9391e07f2",
    ("tree2000", "separator", 2, 0.1): "26ed9d648728da353aff9b7d355096076f4d717a3cdd686b3c0fddabe7c3a467",
    ("grid30", "separator", 1, 0.1): "4702905958b6f8015d483b771a3ccfb2165952ea6dbecf950704255b59b1284f",
    ("grid30", "separator", 1, 0.2): "45cfd72b370a4d6efaf93e533d8e8038f20057936da8051414032273211bfa97",
    ("grid30", "separator", 2, 0.1): "a60f20eb26f2147518dc935ccb04f1e4fcc45176727be09647b5808d715f6f71",
}


def _digest(cert) -> str:
    return hashlib.sha256(emit_json(cert.to_json()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PIN_GRAPHS))
def test_certificates_pinned(name):
    g = PIN_GRAPHS[name]()
    pi = degeneracy_order(g)
    for (graph, kind, r, eps), want in PINNED_CERTIFICATES.items():
        if graph != name:
            continue
        if kind == "uqw":
            m = int(1 / eps) + wcol_of_order(g, pi, 4 * r) + 1
            cert = uqw_extract(g, range(g.n), 4 * r, m, pi)
        else:
            cert = balanced_separator(g, range(g.n), r, eps, pi)
        assert _digest(cert) == want, (graph, kind, r, eps)


def test_separator_on_the_40_grid_pinned():
    g = grid_graph(40, 40)
    cert = balanced_separator(g, range(g.n), 1, 0.1, degeneracy_order(g))
    assert _digest(cert) == "adc11303479470ef580f931ffff7540a533d860ddccb75e139594847e8bec72b"


def test_separator_recounts_balls_near_vertices_entering_x():
    # the deletion set Y holds vertices outside X here; a ball count kept
    # from before Y entered X reads high, and the recorded worst with it
    g = random_tree(59, seed=713)
    A = [1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14, 15, 17, 18, 22, 24, 25, 28, 29, 30,
         31, 33, 34, 36, 37, 38, 39, 40, 42, 43, 44, 45, 47, 48, 49, 50, 51, 52, 55, 56, 57]
    cert = balanced_separator(g, A, 1, 0.3, identity_order(g.n))
    assert sorted(cert.S) == [0, 1, 3, 8, 11, 12, 16, 20, 22, 26, 27, 28, 30, 31, 32, 34,
                              36, 39, 48, 57, 58]
    assert (cert.worst_ball_count, cert.iterations, cert.verified) == (2, 4, True)


# ------------------------------------------------------------------- covers

def test_cover_path_frozen():
    g = path_graph(5)
    cover = neighborhood_cover(g, 1, identity_order(5))
    want = {0: frozenset({0, 1, 2}), 1: frozenset({1, 2, 3}),
            2: frozenset({2, 3, 4}), 3: frozenset({3, 4})}
    assert cover.clusters == want
    assert cover.max_degree == 3
    assert cover.radius_bound == 2
    assert cover.verified


def test_cover_cycle_frozen():
    g = cycle_graph(6)
    cover = neighborhood_cover(g, 1, identity_order(6))
    assert sorted(cover.clusters) == [0, 1, 2, 3]
    assert cover.max_degree == 3
    assert cover.verified


def test_cover_degree_bounded_by_wcol():
    for g in (path_graph(20), cycle_graph(14), grid_graph(4, 5)):
        pi = degeneracy_order(g)
        for r in (1, 2):
            cover = neighborhood_cover(g, r, pi)
            assert cover.verified
            assert cover.max_degree <= wcol_of_order(g, pi, 2 * r)


def test_wreach_clusters_degree_identity():
    # membership count of v across the full cluster family equals the size
    # of v's weak-reach set
    g = grid_graph(3, 4)
    pi = degeneracy_order(g)
    clusters = wreach_clusters(g, pi, 2)
    sets = wreach_sets(g, pi, 2)
    for v in range(g.n):
        assert sum(v in vs for vs in clusters.values()) == len(sets[v])


def test_validate_cover_rejects():
    g = path_graph(5)
    stray = Cover(1, {0: frozenset({1, 2})}, 2, 1)
    assert any("outside its cluster" in v for v in validate_cover(g, stray))
    split = Cover(1, {0: frozenset({0, 2})}, 2, 1)
    assert any("disconnected" in v for v in validate_cover(g, split))
    wide = Cover(1, {0: frozenset(range(7))}, 2, 1)
    assert any("radius" in v for v in validate_cover(path_graph(7), wide))
    # dropping a cluster strands some ball
    g2 = path_graph(5)
    ok = neighborhood_cover(g2, 1, identity_order(5))
    clipped = Cover(1, {0: ok.clusters[0]}, 2, 1)
    assert any("fits in no cluster" in v for v in validate_cover(g2, clipped))
    wrong_deg = Cover(1, dict(ok.clusters), 2, ok.max_degree + 1)
    assert any("degree" in v for v in validate_cover(g2, wrong_deg))


def test_validate_cover_messages_pinned():
    g = path_graph(5)
    strays = [f"ball of {v} fits in no cluster" for v in range(5)]
    assert validate_cover(g, Cover(1, {0: frozenset({1, 2})}, 2, 1)) == \
        ["center 0 outside its cluster"] + strays
    assert validate_cover(g, Cover(1, {0: frozenset({0, 2})}, 2, 1)) == \
        ["cluster of 0 is disconnected"] + strays
    # the message carries the cluster's radius (3), not its center's
    # eccentricity (6)
    wide = Cover(1, {0: frozenset(range(7))}, 2, 1)
    assert validate_cover(path_graph(7), wide) == ["cluster of 0 has radius 3 > 2"]
    wide = Cover(1, {0: frozenset(range(5)), 4: frozenset({3, 4})}, 1, 2)
    assert validate_cover(g, wide) == ["cluster of 0 has radius 2 > 1"]
    ok = neighborhood_cover(g, 1, identity_order(5))
    assert validate_cover(g, Cover(1, {0: ok.clusters[0]}, 2, 1)) == \
        [f"ball of {v} fits in no cluster" for v in (2, 3, 4)]
    assert validate_cover(g, Cover(1, dict(ok.clusters), 2, 4)) == \
        ["recorded degree 4, measured 3"]


def test_validate_cover_accepts_a_peripheral_center():
    # center 0 has eccentricity 4 in P5, but the cluster's radius is 2
    cover = Cover(1, {0: frozenset(range(5))}, 2, 1)
    assert validate_cover(path_graph(5), cover) == []
    assert cover.verified


def test_validate_cover_bfs_count(monkeypatch):
    # one BFS per cluster plus one ball per vertex, not one BFS per member
    import sparsekit.graph as graph
    import sparsekit.wideness as wideness
    g = grid_graph(12, 12)
    cover = neighborhood_cover(g, 2, degeneracy_order(g))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return graph_bfs(*args, **kwargs)

    graph_bfs = graph.bfs_distances
    monkeypatch.setattr(graph, "bfs_distances", counting)
    monkeypatch.setattr(wideness, "bfs_distances", counting)
    assert validate_cover(g, cover) == []
    assert sum(map(len, cover.clusters.values())) > len(cover.clusters) + g.n
    assert 0 < len(calls) <= len(cover.clusters) + g.n


def test_construction_raises_on_a_forged_violation(monkeypatch):
    # the self-check is a raise, not an assert, so it survives python -O
    import sparsekit.wideness as wideness
    monkeypatch.setattr(wideness, "validate_cover", lambda g, cover: ["forged"])
    with pytest.raises(AlgorithmStallError) as e:
        neighborhood_cover(path_graph(5), 1, identity_order(5))
    assert e.value.state == {"r": 1, "violations": ["forged"]}


def test_cover_json_round_trip():
    g = cycle_graph(8)
    cover = neighborhood_cover(g, 2, degeneracy_order(g))
    back = Cover.from_json(cover.to_json())
    assert back.to_json() == cover.to_json()
    assert validate_cover(g, back) == []


# --------------------------------------------------------- partition covers

def test_partition_path_frozen():
    g = path_graph(9)
    pi = identity_order(9)
    pc = partition_cover(g, 1, pi)
    assert pc.n_parts == 6
    assert pc.n_parts <= wcol_of_order(g, pi, 5) == 6
    assert pc.verified


def test_partition_cycle_frozen():
    g = cycle_graph(12)
    pi = degeneracy_order(g)
    pc = partition_cover(g, 1, pi)
    assert pc.n_parts == 6
    assert pc.n_parts <= wcol_of_order(g, pi, 5)
    assert pc.verified


def test_partition_count_bounded_by_wcol():
    for g in (path_graph(20), grid_graph(4, 4), star_graph(30)):
        pi = degeneracy_order(g)
        for r in (1, 2):
            pc = partition_cover(g, r, pi)
            assert pc.verified
            assert pc.n_parts <= wcol_of_order(g, pi, 4 * r + 1)


def test_validate_partition_rejects():
    g = path_graph(7)
    sparse = PartitionCover(1, [frozenset({0, 1})])
    assert any("fits in no part" in v for v in validate_partition(g, sparse))
    fat = PartitionCover(1, [frozenset(range(7))])
    assert any("radius" in v for v in validate_partition(g, fat))
    assert fat.verified is False


def test_validate_partition_messages_pinned():
    P = PartitionCover
    assert validate_partition(path_graph(7), P(1, [frozenset({0, 1})])) == \
        [f"ball of {v} fits in no part" for v in range(1, 7)]
    # the message carries the component's radius (3), not the eccentricity
    # of its first member (6)
    assert validate_partition(path_graph(7), P(1, [frozenset(range(7))])) == \
        ["part 0 has a component of radius 3 > 2"]
    halves = P(1, [frozenset(range(5)), frozenset(range(5, 9))])
    assert validate_partition(path_graph(9), halves) == \
        ["ball of 4 fits in no part", "ball of 5 fits in no part"]
    two = P(1, [frozenset(range(9)), frozenset({0, 1, 2, 6, 7, 8})])
    assert validate_partition(path_graph(9), two) == ["part 0 has a component of radius 4 > 2"]
    gap = P(1, [frozenset(set(range(11)) - {5}), frozenset({4, 5, 6})])
    assert validate_partition(path_graph(11), gap) == \
        ["ball of 4 fits in no part", "ball of 6 fits in no part"]
    # two components of one part, both too wide, in component order
    split = P(1, [frozenset(set(range(15)) - {6}), frozenset({5, 6, 7})])
    assert validate_partition(path_graph(15), split) == \
        ["ball of 5 fits in no part", "ball of 7 fits in no part",
         "part 0 has a component of radius 3 > 2", "part 0 has a component of radius 4 > 2"]
    assert validate_partition(grid_graph(4, 4), P(1, [frozenset(range(16))])) == \
        ["part 0 has a component of radius 4 > 2"]
    assert validate_partition(grid_graph(4, 4), P(2, [frozenset(range(16))])) == []
    ring = P(1, [frozenset(range(12)), frozenset(range(0, 12, 2))])
    assert validate_partition(cycle_graph(12), ring) == ["part 0 has a component of radius 6 > 2"]
    # a peripheral member (eccentricity 4) does not fail a radius-2 component
    assert validate_partition(path_graph(5), P(1, [frozenset(range(5))])) == []
    assert validate_partition(path_graph(5), P(1, [frozenset({0, 9}), frozenset({-1})])) == \
        ["vertex -1 not in the graph", "vertex 9 not in the graph"]
    assert validate_partition(path_graph(5), P(1, [])) == \
        [f"ball of {v} fits in no part" for v in range(5)]
    star = P(1, [frozenset({1, 2, 3}), frozenset(range(6))])
    assert validate_partition(star_graph(6), star) == []


def test_partition_json_round_trip():
    g = grid_graph(3, 3)
    pc = partition_cover(g, 1, degeneracy_order(g))
    back = PartitionCover.from_json(pc.to_json())
    assert back.to_json() == pc.to_json()
    assert validate_partition(g, back) == []

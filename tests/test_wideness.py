import hashlib

import pytest

from oracles import (ball_minimum_cover, brute_uqw, pairwise_uqw_violations,
                     sets_partition_cover, sets_wcol_of_order)
from sparsekit.errors import (AlgorithmStallError, CapabilityError,
                              GraphInputError, PreconditionError)
from sparsekit.graph import Graph, bfs_distances
from sparsekit.graphio import (complete_graph, cycle_graph, emit_json,
                               gnd_graph, grid_graph, path_graph, random_tree,
                               star_graph, subdivide)
from sparsekit.orders import (ORDER_NAMES, build_order, degeneracy_order,
                              identity_order, wcol_of_order, wreach_sets)
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
    assert validate_uqw(g, cert) == []


def test_uqw_extract_star_deletes_center():
    g = star_graph(100)
    cert = uqw_extract(g, range(100), 1, 3, identity_order(100))
    assert sorted(cert.S) == [0]
    assert len(cert.B) == 99
    assert validate_uqw(g, cert) == []


def test_uqw_extract_guarantee_case():
    # |A| = 256 = 4*(2*2*2)^2 meets the bound exactly for c = 2, m = 2
    g = path_graph(256)
    cert = uqw_extract(g, range(256), 1, 2, degeneracy_order(g))
    assert cert.wcol_bound == 2
    assert cert.guarantee_applies is True
    assert cert.S == frozenset()
    assert len(cert.B) == 128
    assert validate_uqw(g, cert) == []


def test_uqw_extract_preconditions():
    g = path_graph(5)
    with pytest.raises(PreconditionError):
        uqw_extract(g, [], 1, 2, identity_order(5))
    with pytest.raises(PreconditionError):
        uqw_extract(g, [0, 1], 0, 2, identity_order(5))


@pytest.mark.parametrize("build,message", [
    (lambda g: uqw_extract(g, [0, 99], 1, 1, identity_order(5)),
     "vertex 99 not in the graph"),
    (lambda g: uqw_extract(g, [True, 3], 1, 1, identity_order(5)),
     "vertex True not in the graph"),
    (lambda g: uqw_brute(g, [0, 99], 1, 1, 1), "vertex 99 not in the graph"),
    (lambda g: balanced_separator(g, [0, 99], 1, 0.5, identity_order(5)),
     "vertex 99 not in the graph"),
    (lambda g: balanced_separator(g, [99, -1, 0], 1, 0.5, identity_order(5)),
     "vertex -1 not in the graph; vertex 99 not in the graph"),
], ids=["extract", "extract-bool", "brute", "separator", "separator-two"])
def test_a_target_that_names_no_vertex_is_a_precondition_error(build, message):
    # these once raised KeyError, or AlgorithmStallError blaming the
    # construction's own certificate
    with pytest.raises(PreconditionError) as e:
        build(path_graph(5))
    assert str(e.value) == message


def test_uqw_brute_frozen():
    g = path_graph(10)
    cert = uqw_brute(g, range(10), 2, 4, s_max=0)
    assert sorted(cert.S) == [] and sorted(cert.B) == [0, 3, 6, 9]
    # any 2 of K5 stay adjacent no matter which 3 vertices go
    assert uqw_brute(complete_graph(5), range(5), 1, 2, s_max=3) is None
    cert = uqw_brute(cycle_graph(12), range(12), 2, 4, s_max=1)
    assert sorted(cert.S) == [] and sorted(cert.B) == [0, 3, 6, 9]
    # radius 1.5 reaches what 1 does (it once made every ball the whole path)
    cert = uqw_brute(path_graph(8), range(8), 1.5, 3, s_max=1)
    assert sorted(cert.S) == [] and sorted(cert.B) == [0, 2, 4, 6]


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
    ("path18", 1, "all"): "2c0ad37d262c4fdc7e279d89cf8c275e10e5362deead263d561be50f7cf5e778",
    ("path18", 1, "not1mod3"): "162c180a4cf29f64a3b6e511d099d36720e672224e46fc6d5637b98eb1466c73",
    ("path18", 2, "all"): "6b0da98e8a79b82e1309945a6ba05a01e9b5af09d87ca2cce64f12f35c92f072",
    ("path18", 2, "not1mod3"): "3692e80e6aa344c16ff64192f458ed2ff15064b490aec710288ca00583449554",
    ("cycle18", 1, "all"): "2c0ad37d262c4fdc7e279d89cf8c275e10e5362deead263d561be50f7cf5e778",
    ("cycle18", 1, "not1mod3"): "db37be961c453b1332f4873e566346cb4f08892f4c912c0c0917d935a7ada171",
    ("cycle18", 2, "all"): "b129b1699a736856e6382579c97c034b72ebc3c3a27ca968bd080c2988faafbe",
    ("cycle18", 2, "not1mod3"): "17b551866ce87f56eb731354847701f0c8f6783fe94a467996be65392e5d658c",
    ("grid3x6", 1, "all"): "048e126aa856b895ea05dd980bbf08055970fc08dc5e3e991c6af1917c0ee56e",
    ("grid3x6", 1, "not1mod3"): "84861df522771fd771ff4cf506ea9d05920d059e4ae12cbc7dfe50a3ae87610e",
    ("grid3x6", 2, "all"): "118fbcb806375a4f914f161e246f4c8420d174607b0a0c0167cfecfb0a6b85dc",
    ("grid3x6", 2, "not1mod3"): "f53223769740e1faeca5ee046266e91c65831bc750f3cc1552aa206d811fc9a0",
    ("triangles6", 1, "all"): "97c44602792372f479d87b78accb21aa4573096a4c436526cb621b281d7be264",
    ("triangles6", 1, "not1mod3"): "a7f2f219439a7bc838b5b0507ff184ac616efe8bbf2145a4d25ec42df6ab9afc",
    ("triangles6", 2, "all"): "44c9dd283bd316dc2a634837b0d1cbaf53d1d25ba3c9c559c9531e98e9ba68a7",
    ("triangles6", 2, "not1mod3"): "17b551866ce87f56eb731354847701f0c8f6783fe94a467996be65392e5d658c",
    ("tree18", 1, "all"): "5699bc2d6160140b1ff7badab30da5ea1f71b6c1290dbe7973ee883593390fb7",
    ("tree18", 1, "not1mod3"): "87d963b624090af4951d9350e475b3647d51041ac212014c07347ab3e9700fe6",
    ("tree18", 2, "all"): "2285dc575764553751b87db15ce1d8ceab233303444de007e3f8d77555f1ab98",
    ("tree18", 2, "not1mod3"): "d9c9b5d5f2c73a0172b7a7560942323cba6c2b3a3412c9d8252e4066428c90d5",
    ("gnd18", 1, "all"): "bf343f3878252e9faa6f8b692eb62f1880fb653fe3790b0e908f0299f6feedb2",
    ("gnd18", 1, "not1mod3"): "650d00107686037e7230a2129f329081fc1513381161be7c039d35874da57f52",
    ("gnd18", 2, "all"): "67a2c99a188fa8feb3ffbdd44d2bd040a2745eedbe497de3db9467d8e308420b",
    ("gnd18", 2, "not1mod3"): "345888c4e74401f517bc9f60c5e96546cdc20f6bc8132886c570f94f8f78d4b4",
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
    assert validate_uqw(g, close) != []
    overlap = UqwCertificate(2, 2, A, frozenset({0}), frozenset({0, 4}), 3, False)
    assert any("overlap" in v for v in validate_uqw(g, overlap))
    outside = UqwCertificate(2, 2, A, frozenset(), frozenset({7}), 3, False)
    assert any("contained" in v for v in validate_uqw(g, outside))
    # a guarantee claim makes the size bounds part of the certificate
    weak = UqwCertificate(2, 3, A, frozenset({0, 1, 2, 3}), frozenset({5}), 3, True)
    bad = validate_uqw(g, weak)
    assert any("exceeds" in v for v in bad) and any("below" in v for v in bad)


def test_validate_uqw_matches_the_pairwise_check(corpus_small):
    # one search per member of B gives the violations of comparing every
    # pair, in the same order: on valid certificates and on forged ones
    rng = Rng(11)
    cases = []
    for g in corpus_small[::30] + [grid_graph(12, 12), random_tree(300, seed=1),
                                   gnd_graph(300, 3.0, seed=1)]:
        pi = degeneracy_order(g)
        for r in (1, 2):
            cases.append((g, uqw_extract(g, range(g.n), r, 2, pi)))
            for p_s, p_b in ((0.0, 0.5), (0.1, 0.3), (0.05, 0.9)):
                S = frozenset(v for v in range(g.n) if rng.next_float() < p_s)
                B = frozenset(v for v in range(g.n) if rng.next_float() < p_b)
                A = frozenset(v for v in range(g.n) if rng.next_float() < 0.8) | B
                cases.append((g, UqwCertificate(r, 3, A, S, B, 1, rng.next_float() < 0.5)))
    many = 0
    for g, cert in cases:
        want = pairwise_uqw_violations(g, cert)
        assert validate_uqw(g, cert) == want, (g.n, cert)
        many = max(many, len(want))
    assert many > 1000


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
    # the center alone is heavy, and no step of the exchange shrinks {0}
    assert (cert.heavy, cert.iterations, cert.put_back) == (1, 0, 0)
    assert validate_separator(g, cert) == []


def test_separator_star_trivial_eps():
    g = star_graph(100)
    cert = balanced_separator(g, range(100), 1, 1.0, identity_order(100))
    assert cert.S == frozenset()
    assert validate_separator(g, cert) == []


def test_separator_of_a_balanced_graph_is_empty():
    # at eps = 1 no ball is heavy, so nothing is exchanged or deleted (the
    # exchange from S = V once stalled at once and returned all of P10)
    g = path_graph(10)
    cert = balanced_separator(g, range(10), 1, 1.0, identity_order(10))
    assert cert.S == frozenset()
    assert (cert.heavy, cert.iterations, cert.put_back) == (0, 0, 0)
    assert cert.worst_ball_count == 3
    assert validate_separator(g, cert) == []


def test_separator_on_trees_and_grids():
    import random
    rnd = random.Random(7)
    edges = [(v, rnd.randint(0, v - 1)) for v in range(1, 60)]
    tree = Graph(60, edges)
    for g in (tree, grid_graph(5, 5)):
        pi = degeneracy_order(g)
        for r, eps in ((1, 0.5), (1, 0.2), (2, 0.5)):
            cert = balanced_separator(g, range(g.n), r, eps, pi)
            assert validate_separator(g, cert) == []
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
    assert validate_separator(g, lying) != []


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
    "k10sub": lambda: subdivide(complete_graph(10), 1),
    "k14sub": lambda: subdivide(complete_graph(14), 1),
}

# sha256 of emit_json(cert.to_json()), degeneracy order, A = all vertices.
# A "uqw" case is the first extraction of the separator with the same r and
# eps (radius 4r, m = int(1/eps) + wcol_4r + 1); unlike a plain small-m
# extraction on these graphs, it deletes vertices.  On the subdivided
# cliques every ball is heavy, so the exchange and the put-back both run.
PINNED_CERTIFICATES = {
    ("grid12", "uqw", 1, 0.1): "57da6b951b444684fb0ca9d11a6c720f90836a1152af2a30bea375374eb98500",
    ("grid12", "uqw", 1, 0.2): "f9b91389cbbb6542db3ed47673afc3eb8814a25bb3968c4b688ad375da56c209",
    ("grid12", "uqw", 2, 0.1): "b83b6f620fb9f556c603f6eb89ec2b7fa216b71d3cac6ffb79e10d5b6729caec",
    ("grid12", "uqw", 2, 0.2): "b465ae17f209507229872312fb8e09ef8a0838414a0ec9ac927d1fbe46b0ddba",
    ("tree300", "uqw", 1, 0.1): "8a9cd9198ec480df9050967bdc4efadd6637d4a051df671c220135bdfd37cc27",
    ("tree300", "uqw", 1, 0.2): "968033888ac61cb29887929fdfbc502f5542055209730a3f640f312a9cd906c7",
    ("tree300", "uqw", 2, 0.1): "f1d54aabbf22ce5b97b850531760063c95196ac9446c49113e3c4de894d9bbcb",
    ("tree300", "uqw", 2, 0.2): "23a48395d453548d98ad589c6ae9f2bad6ec4bd72b7c9abbfd4340bfd9d38200",
    ("gnd300", "uqw", 1, 0.1): "3c117b14fd7c1dafff6dbe8486f2b21c8ceac73f2212d16d0fb03b424700b2d9",
    ("gnd300", "uqw", 1, 0.2): "64c0f9fe33511b136aebf15d3f4fd36419e211b2d7c6681ea52e33cee9c3488f",
    ("gnd300", "uqw", 2, 0.1): "b658ec57eee9286ece5345cd90452ddf60700f03b34f092698cb087b578c6bdc",
    ("gnd300", "uqw", 2, 0.2): "ae628e68346159bbf6568737ecdc4551ffdcb84defa60653925b34463e32b75b",
    ("grid12", "separator", 1, 0.1): "8ffc89497b027f2ba7cc2ee12df9ab993a2292442ac4dc5084b47b5dbbe4c4d4",
    ("grid12", "separator", 1, 0.2): "0ac26cdd571f4c3b0122c2007990c0ca21a77caeee5aa44e370a451c43e24a56",
    ("grid12", "separator", 2, 0.1): "daa1cd8eafae3cb09dfa19b9dd5cdd196533d7b135aa7c69df4b19de5a735caa",
    ("grid12", "separator", 2, 0.2): "8f9e84da749f7bccaee3c4b33badfef3f667082a1670c514bd927d65a8459fd8",
    ("tree300", "separator", 1, 0.1): "214d7e1f312025426c9735487f0490903b76bd4497581e92d9c76ed410e0b507",
    ("tree300", "separator", 1, 0.2): "33f15786440ec471bc0e2ecce5ae4f856e294c6d1cc1333f712d663df814378d",
    ("tree300", "separator", 2, 0.1): "ab59a859beab6dac3d4c6230522f34d6ab41c25af95578b4f632e587662cdf16",
    ("tree300", "separator", 2, 0.2): "5efc3c4414a254232ed0bb6361e4907dc6e9b3be13f947bec9e6a64dae5f270c",
    ("gnd300", "separator", 1, 0.1): "1c2db08fa3d2bdf384a0f8ebc1d28e62e2f1b345825f88e89c52b15f6f147dd0",
    ("gnd300", "separator", 1, 0.2): "ba0019802f46fa235c5e6fbe59584fee0ce121a0b8ba0f55a70e0a1e19bf8b31",
    ("gnd300", "separator", 2, 0.1): "ea3e8d171b8275acf90a10b61454b3e6de3765b5376728ad84c3d98725cd9afa",
    ("gnd300", "separator", 2, 0.2): "da1fd36322e5ba04cec09d67691419e57f72a3af54990c950268c324502d6bfc",
    ("tree2000", "separator", 1, 0.1): "6d3c402d87dfbd43e5b8a716af141883d5be4c3afda405a983d9b55c739f2f0c",
    ("tree2000", "separator", 1, 0.2): "8d36f5af62555e648c472346c49653bb983ef21e35437075c29824ddb45abf57",
    ("tree2000", "separator", 2, 0.1): "9fdda01a01dc398a2582569605f941f9a9130707b50c82465d16b7e235163965",
    ("grid30", "separator", 1, 0.1): "2cf94559a4918c6f76df757dc369d475f19eecf385a90c8485b3e51775e5fb39",
    ("grid30", "separator", 1, 0.2): "d5590aafdb5d20277b8977b341a85adaf41459ea4cf44889631ba8a34474b1f8",
    ("grid30", "separator", 2, 0.1): "aad2cd77e8739b629a5dc699093cb2356f74dfbf687587367fde0694b54c7e39",
    ("k10sub", "separator", 2, 0.1): "ecfd231ceffd686ced4569f9404e7e97a362af7fabd1a93af478edf148b46e00",
    ("k10sub", "separator", 1, 0.02): "8c6e3b8d21eccff77c1b2ad541143f4d478dc2126c2fe273fa5ce02d34e03e4b",
    ("k14sub", "separator", 2, 0.1): "5c1b75df0374f10e53f18bd1966951c103da1a37c2bb9e967f17bad382ce81df",
    ("k14sub", "separator", 1, 0.02): "f02ceb2eb07fae6d7c2969d46c0cc76873e8fd6c677624f57a5af8a123862482",
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
    assert _digest(cert) == "764ae72b21f2fce6c6e77eba280152d4705b39c3ea7e7511222009392b7b618f"


# sha256 of emit_json(cert.to_json()) under the greedy and identity orders,
# built as the `separator` command builds them (`build_order(g, name, 4r)`),
# with A = all vertices and eps = 0.1; a "uqw" case is the separator's first
# extraction, as in PINNED_CERTIFICATES.  Taken while `WReachTable` kept a
# cluster map beside its sets: they check that its deletions and rollbacks
# give the same certificates with the sets alone.
PINNED_ORDER_CERTIFICATES = {
    ("grid12", "greedy", "uqw", 1): "3d3097c8781319e88452cff8498ef168c8cb0253ddabc0cc2c0d242953794ace",
    ("grid12", "greedy", "separator", 1): "8ffc89497b027f2ba7cc2ee12df9ab993a2292442ac4dc5084b47b5dbbe4c4d4",
    ("grid12", "greedy", "uqw", 2): "459b649a72a3a0a610d10c1e87d6347a5b64516c5eb09cdeae5c9c72b08cf418",
    ("grid12", "greedy", "separator", 2): "daa1cd8eafae3cb09dfa19b9dd5cdd196533d7b135aa7c69df4b19de5a735caa",
    ("grid12", "identity", "uqw", 1): "c1635c0e57f7b1730510978b3eb823c9a6ef5f4b7dae22303848374474a71a09",
    ("grid12", "identity", "separator", 1): "8ffc89497b027f2ba7cc2ee12df9ab993a2292442ac4dc5084b47b5dbbe4c4d4",
    ("grid12", "identity", "uqw", 2): "a7cacdf0ed20ca4c4e910fd92ca054ffacc32c113c98db775553b8259900e3d1",
    ("grid12", "identity", "separator", 2): "daa1cd8eafae3cb09dfa19b9dd5cdd196533d7b135aa7c69df4b19de5a735caa",
    ("tree300", "greedy", "uqw", 1): "5a061edb7f374dcd77c3473c19b40a52fcd9281b6edfcd7a060983c50ce1f0f6",
    ("tree300", "greedy", "separator", 1): "214d7e1f312025426c9735487f0490903b76bd4497581e92d9c76ed410e0b507",
    ("tree300", "greedy", "uqw", 2): "f13c9eaa9fabc45f351248b4752c1ca8540000be8422cf3a1f0501a49b9e9d33",
    ("tree300", "greedy", "separator", 2): "ab59a859beab6dac3d4c6230522f34d6ab41c25af95578b4f632e587662cdf16",
    ("tree300", "identity", "uqw", 1): "a2719f48353a71f5e44c9672858372f73c5907f14d70bb72a9964f0718580fc6",
    ("tree300", "identity", "separator", 1): "214d7e1f312025426c9735487f0490903b76bd4497581e92d9c76ed410e0b507",
    ("tree300", "identity", "uqw", 2): "336333e55093f71f136bbd993ac112634477d14509c175f478f078321e0c966e",
    ("tree300", "identity", "separator", 2): "ab59a859beab6dac3d4c6230522f34d6ab41c25af95578b4f632e587662cdf16",
    ("gnd300", "greedy", "uqw", 1): "53637e6cc1cace3ec7e82e8fa62642e7951410f846b68eccfd8f4ac7ebf76f5e",
    ("gnd300", "greedy", "separator", 1): "1c2db08fa3d2bdf384a0f8ebc1d28e62e2f1b345825f88e89c52b15f6f147dd0",
    ("gnd300", "greedy", "uqw", 2): "58c8463f8994e3122d48c86cef5e5cf1b01bf98e5d05c0b897f65d5dfe090dfc",
    ("gnd300", "greedy", "separator", 2): "ea3e8d171b8275acf90a10b61454b3e6de3765b5376728ad84c3d98725cd9afa",
    ("gnd300", "identity", "uqw", 1): "3652ecbf6a2f64cf69f0c9e3d82029e6a84e2a8d390ea42e2e088af1ce7b0bcb",
    ("gnd300", "identity", "separator", 1): "1c2db08fa3d2bdf384a0f8ebc1d28e62e2f1b345825f88e89c52b15f6f147dd0",
    ("gnd300", "identity", "uqw", 2): "aa253156828756799570b7df93e3bfe5bf24eaf3a580e88d0676da3ada23defc",
    ("gnd300", "identity", "separator", 2): "ea3e8d171b8275acf90a10b61454b3e6de3765b5376728ad84c3d98725cd9afa",
}


@pytest.mark.parametrize("name", ["grid12", "tree300", "gnd300"])
def test_certificates_under_other_orders_pinned(name):
    g = PIN_GRAPHS[name]()
    for (graph, order, kind, r), want in PINNED_ORDER_CERTIFICATES.items():
        if graph != name:
            continue
        pi = build_order(g, order, 4 * r)
        if kind == "uqw":
            m = int(1 / 0.1) + wcol_of_order(g, pi, 4 * r) + 1
            cert = uqw_extract(g, range(g.n), 4 * r, m, pi)
        else:
            cert = balanced_separator(g, range(g.n), r, 0.1, pi)
        assert _digest(cert) == want, (graph, order, kind, r)


def test_separator_checks_only_the_certificate_it_returns(monkeypatch):
    # each exchange step takes a plain (S, B) from the extraction core; it
    # once built a uqw certificate per step and validated it
    import sparsekit.orders as orders
    import sparsekit.wideness as wideness
    calls = {"validate_uqw": 0, "validate_separator": 0, "wcol": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in ("validate_uqw", "validate_separator"):
        monkeypatch.setattr(wideness, name, counting(name, getattr(wideness, name)))
    monkeypatch.setattr(orders.WReachTable, "wcol",
                        counting("wcol", orders.WReachTable.wcol))
    g = subdivide(complete_graph(10), 1)
    cert = balanced_separator(g, range(g.n), 2, 0.1, degeneracy_order(g))
    assert cert.iterations >= 1
    assert calls == {"validate_uqw": 0, "validate_separator": 1, "wcol": 1}


@pytest.mark.parametrize("build,validator", [
    (lambda: uqw_extract(path_graph(10), range(10), 2, 2, identity_order(10)),
     "validate_uqw"),
    (lambda: balanced_separator(star_graph(20), range(20), 1, 0.2, identity_order(20)),
     "validate_separator"),
], ids=["uqw_extract", "balanced_separator"])
def test_returned_certificates_are_checked(monkeypatch, build, validator):
    import sparsekit.wideness as wideness
    monkeypatch.setattr(wideness, validator, lambda g, cert: ["forged"])
    with pytest.raises(AlgorithmStallError) as e:
        build()
    assert e.value.state["violations"] == ["forged"]
    assert "certificate" in e.value.state


def test_separator_recounts_balls_near_vertices_entering_x(monkeypatch):
    # the deletion set Y of the one exchange step holds vertices outside X
    # here; a ball count kept from before Y entered X reads high, and the
    # recorded worst with it
    import sparsekit.wideness as wideness
    extract, entering = wideness._extract, []

    def spying(X, m, c, table):
        Y, B = extract(X, m, c, table)
        entering.append(sorted(Y - X))
        return Y, B

    monkeypatch.setattr(wideness, "_extract", spying)
    g = random_tree(34, seed=1281)
    A = [8, 9, 11, 14, 20, 23, 24, 26, 30, 31, 33]
    cert = balanced_separator(g, A, 2, 0.1, identity_order(g.n))
    assert entering[0] == [6, 10, 13]
    assert sorted(cert.S) == [0, 8, 17, 26, 30, 31]
    assert (cert.worst_ball_count, cert.iterations) == (1, 1)
    assert (cert.heavy, cert.put_back) == (21, 10)
    assert validate_separator(g, cert) == []


def _balanced(g, A, r, eps, S) -> bool:
    """Whether deleting S leaves every r-ball within the budget."""
    probe = SeparatorCertificate(r, eps, frozenset(A), frozenset(S), 0, 0)
    return not any("above eps" in v for v in validate_separator(g, probe))


def test_separator_is_empty_exactly_when_nothing_is_needed_and_is_1_minimal(corpus_small):
    # S is empty exactly when the empty set is balanced, and no single
    # member of S can be put back: deleting S minus s leaves a heavy ball
    rng = Rng(26)
    graphs = corpus_small[::25] + [f() for f in PIN_GRAPHS.values()]
    runs = nonempty = 0
    for g in graphs:
        pi = degeneracy_order(g)
        subset = [v for v in range(g.n) if rng.next_float() < 0.5] or [0]
        for A in (range(g.n), subset):
            for r, eps in ((1, 0.1), (1, 0.5), (2, 0.2)) if g.n < 200 else ((1, 0.1),):
                cert = balanced_separator(g, A, r, eps, pi)
                runs += 1
                assert (cert.S == frozenset()) == _balanced(g, A, r, eps, ()), (g.n, r, eps)
                nonempty += bool(cert.S)
                for s in sorted(cert.S):
                    assert not _balanced(g, A, r, eps, cert.S - {s}), (g.n, r, eps, s)
    assert nonempty > 200 and runs - nonempty > 10, (nonempty, runs)


def test_separator_builds_no_weak_reach_table_without_a_heavy_ball(monkeypatch):
    import sparsekit.wideness as wideness
    built = []

    class Counting(wideness.WReachTable):
        def __init__(self, g, order, r):
            built.append(r)
            super().__init__(g, order, r)

    monkeypatch.setattr(wideness, "WReachTable", Counting)
    g = grid_graph(30, 30)
    cert = balanced_separator(g, range(g.n), 1, 0.1, degeneracy_order(g))
    assert (cert.S, cert.heavy, cert.iterations) == (frozenset(), 0, 0)
    assert cert.worst_ball_count == 5
    assert built == []
    g = subdivide(complete_graph(10), 1)
    cert = balanced_separator(g, range(g.n), 2, 0.1, degeneracy_order(g))
    assert cert.heavy == g.n
    assert built == [8]


def test_separator_checks_the_order_when_nothing_is_heavy():
    # no weak-reach table is built for a balanced graph, but a wrong order
    # is still refused, as it is when the exchange runs
    with pytest.raises(GraphInputError):
        balanced_separator(path_graph(5), range(5), 1, 1.0, identity_order(4))


def test_exchange_step_keeps_the_invariant():
    # the lemma in `balanced_separator`'s docstring, on small random cases:
    # if every r-ball in G-X is within budget, X2 is the part of some
    # B within X-Y whose 2r-balls in G-Y are, and X' = (X-X2)|Y, then every
    # r-ball in G-X' is within budget, with X, Y and B otherwise arbitrary
    import random
    rnd = random.Random(24)

    def count(g, A, v, radius, keep):
        return sum(1 for w in bfs_distances(g, (v,), radius, keep) if w in A)

    for _ in range(300):
        n = rnd.randint(2, 12)
        p = rnd.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u) if rnd.random() < p])
        V = frozenset(range(n))
        r = rnd.randint(1, 2)
        A = frozenset(rnd.sample(range(n), rnd.randint(1, n)))
        budget = rnd.random() * len(A)
        X = {v for v in V if rnd.random() < 0.5}
        while heavy := [v for v in V - X if count(g, A, v, r, V - X) > budget]:
            X.add(heavy[0])
        Y = {v for v in V if rnd.random() < 0.3}
        B = {v for v in X - Y if rnd.random() < 0.5}
        X2 = {v for v in B if count(g, A, v, 2 * r, V - Y) <= budget}
        outside = V - ((X - X2) | Y)
        assert all(count(g, A, v, r, outside) <= budget for v in outside)


def test_separator_counts_each_residual_ball_once(monkeypatch):
    # the exchange once recounted, at every step, the r-balls near each
    # vertex that entered or left X.  Now the r-balls of G are counted once,
    # for the heavy set; the exchange counts none; the put-back counts only
    # balls near the vertices it tries; and each r-ball of G-S is counted
    # once, at the end (the validator's own searches are not counted here)
    import sparsekit.wideness as wideness
    balls, marks, exchanged = [], {}, []
    bfs, validate = wideness.bfs_distances, wideness.validate_separator
    exchange, put_back = wideness._exchange, wideness._put_back

    def counting_bfs(g, sources, radius=None, active=None):
        if radius == 2:
            balls.append((tuple(sources), active and frozenset(active)))
        return bfs(g, sources, radius, active)

    def marking(name, fn):
        def wrapped(*args):
            marks[name] = len(balls)
            out = fn(*args)
            marks[name + " end"] = len(balls)
            return out
        return wrapped

    def checking(g, cert):
        marks["check"] = len(balls)
        return validate(g, cert)

    monkeypatch.setattr(wideness, "bfs_distances", counting_bfs)
    monkeypatch.setattr(wideness, "_exchange", marking("exchange", exchange))
    monkeypatch.setattr(wideness, "_put_back", marking(
        "put_back", lambda g, A, r, budget, X: exchanged.append(X) or put_back(g, A, r, budget, X)))
    monkeypatch.setattr(wideness, "validate_separator", checking)
    g = subdivide(complete_graph(10), 1)
    V = frozenset(range(g.n))
    cert = balanced_separator(g, V, 2, 0.1, degeneracy_order(g))
    assert cert.iterations >= 1 and cert.put_back >= 1
    assert balls[:marks["exchange"]] == [((v,), None) for v in range(g.n)]
    assert marks["exchange end"] == marks["exchange"]
    near = set().union(*(bfs(g, (x,), 2) for x in exchanged[0]))
    assert all(v in near for (v,), _ in balls[marks["put_back"]:marks["put_back end"]])
    residual = balls[marks["put_back end"]:marks["check"]]
    assert sorted(residual) == [((v,), V - cert.S) for v in sorted(V - cert.S)]


# ------------------------------------------------------------------- covers

def test_cover_path_frozen():
    g = path_graph(5)
    cover = neighborhood_cover(g, 1, identity_order(5))
    want = {0: frozenset({0, 1, 2}), 1: frozenset({1, 2, 3}),
            2: frozenset({2, 3, 4}), 3: frozenset({3, 4})}
    assert cover.clusters == want
    assert cover.max_degree == 3
    assert cover.radius_bound == 2
    assert validate_cover(g, cover) == []


def test_cover_cycle_frozen():
    g = cycle_graph(6)
    cover = neighborhood_cover(g, 1, identity_order(6))
    assert sorted(cover.clusters) == [0, 1, 2, 3]
    assert cover.max_degree == 3
    assert validate_cover(g, cover) == []


def test_cover_degree_bounded_by_wcol():
    for g in (path_graph(20), cycle_graph(14), grid_graph(4, 5)):
        pi = degeneracy_order(g)
        for r in (1, 2):
            cover = neighborhood_cover(g, r, pi)
            assert validate_cover(g, cover) == []
            assert cover.max_degree <= wcol_of_order(g, pi, 2 * r)


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
    assert validate_partition(g, pc) == []


def test_partition_cycle_frozen():
    g = cycle_graph(12)
    pi = degeneracy_order(g)
    pc = partition_cover(g, 1, pi)
    assert pc.n_parts == 6
    assert pc.n_parts <= wcol_of_order(g, pi, 5)
    assert validate_partition(g, pc) == []


def test_partition_count_bounded_by_wcol():
    for g in (path_graph(20), grid_graph(4, 4), star_graph(30)):
        pi = degeneracy_order(g)
        for r in (1, 2):
            pc = partition_cover(g, r, pi)
            assert validate_partition(g, pc) == []
            assert pc.n_parts <= wcol_of_order(g, pi, 4 * r + 1)


def test_validate_partition_rejects():
    g = path_graph(7)
    sparse = PartitionCover(1, [frozenset({0, 1})])
    assert any("fits in no part" in v for v in validate_partition(g, sparse))
    fat = PartitionCover(1, [frozenset(range(7))])
    assert any("radius" in v for v in validate_partition(g, fat))
    assert validate_partition(g, fat) != []


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


# ------------------------------------------- streamed weak-reach searches

@pytest.mark.parametrize("name", ORDER_NAMES)
def test_covers_and_wcol_match_the_rules_over_all_weak_reach_sets(corpus_small, name):
    # centers from `ball`, colors from `wreach_sets` and wcol as the largest
    # set give the same certificates and values as the streamed searches
    graphs = corpus_small + [gnd_graph(400, 3.0, seed=21), gnd_graph(200, 3.0, seed=22),
                             grid_graph(15, 20), random_tree(500, seed=23)]
    for g in graphs:
        for r in (1, 2):
            pi = build_order(g, name, 2 * r)
            assert neighborhood_cover(g, r, pi).to_json() == \
                ball_minimum_cover(g, r, pi).to_json(), (g, r)
            assert partition_cover(g, r, pi).to_json() == \
                sets_partition_cover(g, r, pi).to_json(), (g, r)
            for k in (r, 2 * r, 4 * r + 1):
                assert wcol_of_order(g, pi, k) == sets_wcol_of_order(g, pi, k), (g, k)


def test_partition_cover_builds_no_weak_reach_sets():
    # the coloring folds each (4r+1)-cluster in as its search ends; holding
    # every weak-reach set at once took about ten times the memory
    import tracemalloc
    g = gnd_graph(2000, 3.0, seed=1)
    pi = degeneracy_order(g)
    peaks = []
    for build in (lambda: partition_cover(g, 1, pi), lambda: wreach_sets(g, pi, 5)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 2, peaks


@pytest.mark.parametrize("build", [neighborhood_cover, partition_cover])
def test_covers_check_the_order_and_radius_before_searching(build):
    # the radius named is the caller's r, not the 2r or 4r+1 searched at
    g = path_graph(5)
    with pytest.raises(GraphInputError, match="order on 4 vertices, graph has 5"):
        build(g, 1, identity_order(4))
    with pytest.raises(PreconditionError, match="^r must be >= 0, got -1$"):
        build(g, -1, identity_order(5))

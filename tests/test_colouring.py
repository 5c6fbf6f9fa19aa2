import pytest

from rainbowcycles import generators as gen
from rainbowcycles.colouring import (
    CycleWitness,
    EdgeColouring,
    TreeWitness,
    WalkWitness,
    check_cycle_witness,
    check_tree_witness,
    check_walk_witness,
    rainbow_colouring,
)
from rainbowcycles.errors import InvalidParameter


class TestEdgeColouring:
    def test_totality_enforced(self):
        g = gen.cycle(4)
        with pytest.raises(InvalidParameter):
            EdgeColouring(g, (0, 1, 2), 3)

    def test_range_enforced(self):
        g = gen.cycle(3)
        with pytest.raises(InvalidParameter):
            EdgeColouring(g, (0, 1, 3), 3)

    def test_surjectivity_enforced_unless_flagged(self):
        g = gen.cycle(3)
        with pytest.raises(InvalidParameter):
            EdgeColouring(g, (0, 0, 1), 3)
        EdgeColouring(g, (0, 0, 1), 3, unused_ok=True)

    def test_rainbow(self):
        c = rainbow_colouring(gen.complete(4))
        assert c.r == 6 and c.colour_of == (0, 1, 2, 3, 4, 5)

    def test_quotients_are_a_hint(self):
        g = gen.cycle(4)
        c = EdgeColouring(g, (0, 1, 2, 3), 4, quotients=((0, 0, 1, 1),))
        assert c == EdgeColouring(g, (0, 1, 2, 3), 4)
        with pytest.raises(InvalidParameter, match="every vertex a part"):
            EdgeColouring(g, (0, 1, 2, 3), 4, quotients=((0, 0, 1),))
        # the parts are {0, 1} and {2, 3}, joined by the edges 1-2 and 0-3;
        # the edges 0-1 and 2-3 join no two parts, so the partition cuts not
        # every edge
        ((part, adj, counts, dist),), cut = c._quotient_graphs
        assert (part, adj, counts) == ((0, 0, 1, 1), (((1, 0),), ((0, 0),)), (2,))
        assert (dist, cut) == (((0, 1), (1, 0)), False)


class TestCycleWitness:
    def test_valid(self):
        g = gen.cycle(4)
        w = CycleWitness((0, 1, 2, 3), (0, 2, 3, 1))
        assert check_cycle_witness(g, w)

    def test_rejects_short_or_nonadjacent(self):
        g = gen.cycle(4)
        assert not check_cycle_witness(g, CycleWitness((0, 1), (0, 0)))
        assert not check_cycle_witness(g, CycleWitness((0, 2, 1), (0, 1, 2)))

    def test_rainbow_check(self):
        g = gen.cycle(3)
        w = CycleWitness((0, 1, 2), (0, 2, 1))
        c = EdgeColouring(g, (0, 0, 1), 2)
        assert check_cycle_witness(g, w, c)
        assert not check_cycle_witness(g, w, c, require_rainbow=True)

    def test_containing(self):
        g = gen.wheel(4)
        w = CycleWitness((0, 1, 2, 3), tuple(g.edge_id(*p) for p in
                                             ((0, 1), (1, 2), (2, 3), (3, 0))))
        assert check_cycle_witness(g, w, containing=[0, 2])
        assert not check_cycle_witness(g, w, containing=[4])


# C_5 and W_5 share the rim cycle 0-1-2-3-4; vertex 5 is W_5's hub and no
# vertex of C_5, so it is off the rim cycle in both graphs.
_RIM = (0, 1, 2, 3, 4)


def _rim_ids(g):
    return tuple(g.edge_id(a, b) for a, b in zip(_RIM, _RIM[1:] + _RIM[:1]))


def _swapped(ids):
    return (ids[1], ids[0]) + ids[2:]


# (name, witness from g, keyword arguments): every case must be refused
_REFUSED_CYCLES = [
    ("repeated vertex", lambda g: CycleWitness(
        (0, 1, 2, 1), tuple(g.edge_id(*p) for p in ((0, 1), (1, 2), (2, 1), (1, 0)))), {}),
    ("two ids swapped", lambda g: CycleWitness(_RIM, _swapped(_rim_ids(g))), {}),
    ("non-edge with id None", lambda g: CycleWitness(
        (0, 1, 2), (g.edge_id(0, 1), g.edge_id(1, 2), None)), {}),
    ("non-edge with id -1", lambda g: CycleWitness(
        (0, 1, 2), (g.edge_id(0, 1), g.edge_id(1, 2), -1)), {}),
    ("two-vertex cycle", lambda g: CycleWitness((0, 1), (g.edge_id(0, 1),) * 2), {}),
    ("repeated colour", lambda g: CycleWitness(_RIM, _rim_ids(g)), {"require_rainbow": True}),
    ("containing off the cycle", lambda g: CycleWitness(_RIM, _rim_ids(g)),
     {"containing": (0, 5)}),
]


def _rim_colouring(g):
    """Colours every edge apart, except the rim edges 0-1 and 2-3."""
    colours = list(range(g.e))
    colours[g.edge_id(2, 3)] = colours[g.edge_id(0, 1)]
    return EdgeColouring(g, tuple(colours), g.e, unused_ok=True)


@pytest.mark.parametrize("g", [gen.cycle(5), gen.wheel(5)], ids=["C5", "W5"])
class TestCycleWitnessRefusals:
    def test_the_rim_cycle_is_accepted(self, g):
        w = CycleWitness(_RIM, _rim_ids(g))
        assert check_cycle_witness(g, w, rainbow_colouring(g), require_rainbow=True,
                                   containing=(0, 2, 4))

    @pytest.mark.parametrize("name,make,kwargs", _REFUSED_CYCLES,
                             ids=[case[0] for case in _REFUSED_CYCLES])
    def test_refused(self, g, name, make, kwargs):
        assert not check_cycle_witness(g, make(g), _rim_colouring(g), **kwargs)


class TestTreeWitness:
    def test_valid_path(self):
        g = gen.cycle(5)
        w = TreeWitness((g.edge_id(0, 1), g.edge_id(1, 2)), frozenset({0, 1, 2}))
        assert check_tree_witness(g, w, containing=[0, 2])

    def test_rejects_cycle_as_tree(self):
        g = gen.cycle(3)
        w = TreeWitness((0, 1, 2), frozenset({0, 1, 2}))
        assert not check_tree_witness(g, w)

    def test_rejects_disconnected(self):
        g = gen.cycle(6)
        w = TreeWitness((0, 3), frozenset({0, 1, 3, 4}))
        assert not check_tree_witness(g, w)


# (name, walk witness): each is refused on C_5
_REFUSED_WALKS = [
    ("anchor above n, trivial path", WalkWitness((99,), ((99,),))),
    ("anchor -1, trivial paths", WalkWitness((-1, -1), ((-1,), (-1,)))),
    ("anchor -1, non-trivial path", WalkWitness((-1, 1), ((-1, 0, 1), (1, 2, 3, 4, -1)))),
]


class TestWalkWitness:
    @pytest.mark.parametrize("name,w", _REFUSED_WALKS, ids=[case[0] for case in _REFUSED_WALKS])
    def test_refused(self, name, w):
        assert not check_walk_witness(gen.cycle(5), w)

    def test_trivial_paths_must_match_repeats(self):
        g = gen.hypercube(3)
        good = WalkWitness((0, 0, 3), ((0,), (0, 1, 3), (3, 2, 0)))
        assert check_walk_witness(g, good)
        bad = WalkWitness((0, 0, 3), ((0, 1, 0), (0, 1, 3), (3, 2, 0)))
        assert not check_walk_witness(g, bad)

    def test_rejects_length_one_paths(self):
        g = gen.hypercube(2)
        w = WalkWitness((0, 1), ((0, 1), (1, 3, 2, 0)))
        assert not check_walk_witness(g, w)

    def test_rejects_shared_internals(self):
        g = gen.hypercube(3)
        w = WalkWitness((0, 3), ((0, 1, 3), (3, 1, 0)))
        assert not check_walk_witness(g, w)

    def test_rejects_anchor_as_internal(self):
        g = gen.cycle(6)
        w = WalkWitness((0, 3), ((0, 1, 2, 3), (3, 4, 5, 0)))
        assert check_walk_witness(g, w)
        w2 = WalkWitness((0, 2), ((0, 1, 2), (2, 3, 4, 5, 0)))
        assert check_walk_witness(g, w2)
        # route one path through the other anchor
        w3 = WalkWitness((1, 4), ((1, 2, 3, 4), (4, 5, 0, 1)))
        assert check_walk_witness(g, w3)
        w4 = WalkWitness((1, 3), ((1, 2, 3), (3, 4, 5, 0, 1)))
        assert check_walk_witness(g, w4)

    def test_rainbow_requirement(self):
        g = gen.cycle(6)
        c = EdgeColouring(g, (0, 1, 2, 3, 4, 0), 5, unused_ok=True)
        w = WalkWitness((0, 3), ((0, 1, 2, 3), (3, 4, 5, 0)))
        assert not check_walk_witness(g, w, c, require_rainbow=True)
        c2 = rainbow_colouring(g)
        assert check_walk_witness(g, w, c2, require_rainbow=True)


# (name, checker, witness on C_5): without a colouring each edge is its own
# colour, so each witness is rainbow
_UNCOLOURED_RAINBOW = [
    ("walk", check_walk_witness, WalkWitness((0, 2), ((0, 1, 2), (2, 3, 4, 0)))),
    ("tree", check_tree_witness, TreeWitness((0, 1), frozenset({0, 1, 4}))),
    ("cycle", check_cycle_witness, CycleWitness(_RIM, _rim_ids(gen.cycle(5)))),
]


@pytest.mark.parametrize("name,check,w", _UNCOLOURED_RAINBOW,
                         ids=[case[0] for case in _UNCOLOURED_RAINBOW])
def test_rainbow_without_a_colouring(name, check, w):
    assert check(gen.cycle(5), w, None, require_rainbow=True)

"""Tests for the fabric model and the placer."""

import random

import pytest

from oracles import spiral
from repro.errors import PhysicalError, PlacementError
from repro.physical.device import DEVICES, get_device
from repro.physical.fabric import (
    BRAM_COL,
    CLB,
    DSP_COL,
    KIND_CAPACITY,
    Fabric,
    Occupancy,
)
from repro.physical.placement import Placer
from repro.rtl.netlist import CellKind, Netlist


class TestDevices:
    def test_catalog_complete(self):
        assert set(DEVICES) == {"aws-f1", "zc706", "alveo-u50", "virtex-7"}

    def test_unknown_device(self):
        with pytest.raises(PhysicalError):
            get_device("spartan-3")

    def test_utilization_percentages(self):
        dev = get_device("aws-f1")
        util = dev.utilization(dev.luts // 2, 0, 0, 0)
        assert util["LUT"] == pytest.approx(50.0)


class TestFabric:
    @pytest.fixture(scope="class")
    def fabric(self):
        return Fabric(get_device("aws-f1"))

    def test_capacity_covers_device(self, fabric):
        dev = fabric.device
        clb = sum(
            fabric.rows * 64 for x in range(fabric.cols) if fabric.col_type(x) == CLB
        )
        bram = sum(
            fabric.rows for x in range(fabric.cols) if fabric.col_type(x) == BRAM_COL
        )
        dsp = sum(
            fabric.rows * 2 for x in range(fabric.cols) if fabric.col_type(x) == DSP_COL
        )
        assert clb >= dev.luts
        assert bram >= dev.bram36
        assert dsp >= dev.dsps

    def test_special_columns_interleaved(self, fabric):
        bram_cols = [x for x in range(fabric.cols) if fabric.col_type(x) == BRAM_COL]
        assert len(bram_cols) >= 2
        gaps = [b - a for a, b in zip(bram_cols, bram_cols[1:])]
        assert max(gaps) <= 4 * (fabric.cols // len(bram_cols))

    def test_ring_radius_zero(self, fabric):
        assert list(spiral.ring(fabric, 5, 5, 0)) == [(5, 5)]

    def test_ring_counts(self, fabric):
        ring1 = list(spiral.ring(fabric, 50, 50, 1))
        assert len(ring1) == 8
        assert len(set(ring1)) == 8

    def test_ring_clipped_at_border(self, fabric):
        ring = list(spiral.ring(fabric, 0, 0, 1))
        assert all(spiral.in_bounds(fabric, x, y) for x, y in ring)
        assert len(ring) == 3

    def test_nearest_tiles_ordered_by_distance(self, fabric):
        cx, cy = fabric.center
        tiles = []
        gen = spiral.nearest_tiles(fabric, cx, cy, CLB)
        for _ in range(50):
            tiles.append(next(gen))
        dists = [max(abs(x - cx), abs(y - cy)) for x, y in tiles]
        assert dists == sorted(dists)


class TestOccupancy:
    def test_take_and_free(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        x = next(i for i in range(fabric.cols) if fabric.col_type(i) == CLB)
        assert occ.take(x, 0, 10) == 10
        assert occ.free_at(x, 0) == 64 - 10

    def test_take_clamps(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        x = next(i for i in range(fabric.cols) if fabric.col_type(i) == CLB)
        assert occ.take(x, 0, 1000) == 64

    def test_release(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        x = next(i for i in range(fabric.cols) if fabric.col_type(i) == CLB)
        occ.take(x, 0, 30)
        occ.release([(x, 0, 30)])
        assert occ.free_at(x, 0) == 64

    def test_allocate_spills_to_neighbors(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        chunks = occ.allocate(*fabric.center, CLB, 1000)
        assert sum(u for _x, _y, u in chunks) == 1000
        assert len(chunks) >= 1000 // 64

    def test_allocate_out_of_capacity(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        with pytest.raises(PlacementError):
            occ.allocate(*fabric.center, DSP_COL, 10_000)

    def test_allocate_off_die_rejected(self):
        fabric = Fabric(get_device("zc706"))
        occ = Occupancy(fabric)
        for cx, cy in ((-1, 0), (fabric.cols, 0), (0, -1), (0, fabric.rows)):
            with pytest.raises(ValueError):
                occ.allocate(cx, cy, CLB, 1)
        assert occ._used == {}


def _prefilled(fabric, rng):
    """An occupancy with a packed block, scattered full and partial tiles,
    and holes released back into it."""
    occ = Occupancy(fabric)
    bx0, bx1 = sorted(rng.randrange(fabric.cols) for _ in range(2))
    by0, by1 = sorted(rng.randrange(fabric.rows) for _ in range(2))
    for x in range(fabric.cols):
        cap = fabric.tile_capacity(x)
        for y in range(fabric.rows):
            if bx0 <= x <= bx1 and by0 <= y <= by1:
                occ.take(x, y, cap)
            elif rng.random() < 0.25:
                occ.take(x, y, cap if rng.random() < 0.5 else rng.randint(1, cap))
    for (x, y), used in list(occ._used.items()):
        if rng.random() < 0.1:
            occ.release([(x, y, used if rng.random() < 0.5 else rng.randint(1, used))])
    return occ


def _outcome(occ, cx, cy, kind, amount, search):
    try:
        result = search(occ, cx, cy, kind, amount)
    except PlacementError as exc:
        result = ("PlacementError", str(exc))
    return result, dict(occ._used), occ.last_search


@pytest.mark.parametrize("kind", (CLB, BRAM_COL, DSP_COL))
@pytest.mark.parametrize("device", sorted(DEVICES))
def test_allocate_matches_full_spiral(device, kind):
    """The column-restricted search equals the full-spiral oracle: same
    chunks in the same order, same occupancy afterwards (partial takes
    included on exhaustion) and the same ``last_search`` box."""
    fabric = Fabric(get_device(device))
    cap = KIND_CAPACITY[kind]
    cols, rows = fabric.cols, fabric.rows
    for seed in range(3):
        rng = random.Random(f"{device}-{kind}-{seed}")
        fast = _prefilled(fabric, rng)
        ref = Occupancy(fabric)
        ref._used = dict(fast._used)
        centers = [
            (0, 0), (cols - 1, 0), (0, rows - 1), (cols - 1, rows - 1),
            (cols // 2, 0), (cols - 1, rows // 2), (cols // 2, rows - 1),
            (0, rows // 2), fabric.center,
        ] + [(rng.randrange(cols), rng.randrange(rows)) for _ in range(4)]
        rng.shuffle(centers)
        taken = []
        for i, (cx, cy) in enumerate(centers):
            amount = (
                1, rng.randint(2, 4 * cap), cap * rng.randint(5, 80)
            )[i % 3]
            got = _outcome(fast, cx, cy, kind, amount, Occupancy.allocate)
            want = _outcome(ref, cx, cy, kind, amount, spiral.allocate)
            assert got == want, (device, kind, seed, cx, cy, amount)
            taken.append(got[0])
            if rng.random() < 0.3:
                # Release an earlier allocation: a hole amid newer takes.
                chunks = taken.pop(rng.randrange(len(taken)))
                if isinstance(chunks, list):
                    fast.release(chunks)
                    ref.release(chunks)
        # Exhaustion: more than everything still free of this kind.
        free = sum(
            fast.free_at(x, y)
            for x in fabric.kind_cols[kind]
            for y in range(rows)
        )
        cx, cy = rng.choice(centers)
        got = _outcome(fast, cx, cy, kind, free + 1, Occupancy.allocate)
        want = _outcome(ref, cx, cy, kind, free + 1, spiral.allocate)
        assert got == want, (device, kind, seed, cx, cy, "exhaustion")
        assert got[0][0] == "PlacementError"
        assert all(
            fast.free_at(x, y) == 0 for x in fabric.kind_cols[kind] for y in range(rows)
        )


def _index_from_used(occ):
    """The free-tile masks rebuilt from scratch out of ``occ._used``."""
    fabric = occ.fabric
    row_free = {
        kind: [(1 << len(xs)) - 1] * fabric.rows
        for kind, xs in fabric.kind_cols.items()
    }
    col_free = [(1 << fabric.rows) - 1] * fabric.cols
    for (x, y), used in occ._used.items():
        if used >= fabric.tile_capacity(x):
            kind = fabric.col_type(x)
            row_free[kind][y] &= ~(1 << fabric.kind_cols[kind].index(x))
            col_free[x] &= ~(1 << y)
    return row_free, col_free


@pytest.mark.parametrize("kind", (CLB, BRAM_COL, DSP_COL))
@pytest.mark.parametrize("device", sorted(DEVICES))
def test_free_index_tracks_occupancy(device, kind):
    """After every take, release and allocate, including partial releases
    and an exhausting allocation, the free-tile masks equal masks rebuilt
    from the use counts."""
    fabric = Fabric(get_device(device))
    cap = KIND_CAPACITY[kind]
    rng = random.Random(f"index-{device}-{kind}")
    occ = _prefilled(fabric, rng)

    def check(step):
        assert (occ._row_free, occ._col_free) == _index_from_used(occ), step

    check("prefilled")
    held = []
    for step in range(80):
        op = rng.random()
        if op < 0.3:
            x, y = rng.randrange(fabric.cols), rng.randrange(fabric.rows)
            got = occ.take(x, y, rng.randint(1, fabric.tile_capacity(x)))
            if got:
                held.append([(x, y, got)])
        elif op < 0.45 and held:
            occ.release(held.pop(rng.randrange(len(held))))
        elif op < 0.6 and held:
            # Give back part of one chunk and keep the rest.
            chunks = held[rng.randrange(len(held))]
            j = rng.randrange(len(chunks))
            x, y, units = chunks[j]
            part = rng.randint(1, units)
            occ.release([(x, y, part)])
            if part < units:
                chunks[j] = (x, y, units - part)
            else:
                chunks.pop(j)
                if not chunks:
                    held.remove(chunks)
        else:
            cx, cy = rng.randrange(fabric.cols), rng.randrange(fabric.rows)
            try:
                held.append(occ.allocate(cx, cy, kind, rng.randint(1, 40 * cap)))
            except PlacementError:
                pass
        check(step)
    free = sum(
        occ.free_at(x, y) for x in fabric.kind_cols[kind] for y in range(fabric.rows)
    )
    with pytest.raises(PlacementError):
        occ.allocate(*fabric.center, kind, free + 1)
    check("exhausted")
    assert not any(occ._row_free[kind])
    assert not any(occ._col_free[x] for x in fabric.kind_cols[kind])
    for chunks in held:
        occ.release(chunks)
        check("released")


def chain_netlist(n=20):
    nl = Netlist("chain")
    prev = nl.new_cell("c0", CellKind.FF, ffs=8, width=8, delay_ns=0.1)
    for i in range(1, n):
        cur = nl.new_cell(f"c{i}", CellKind.LOGIC, luts=8, delay_ns=0.2)
        nl.connect(f"n{i}", prev, [(cur, "i")])
        prev = cur
    return nl


class TestPlacer:
    def test_all_cells_placed(self):
        nl = chain_netlist()
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        assert set(placement.pos) == set(nl.cells)

    def test_deterministic(self):
        fabric = Fabric(get_device("aws-f1"))
        p1 = Placer(fabric, seed=7).place(chain_netlist())
        p2 = Placer(fabric, seed=7).place(chain_netlist())
        assert p1.pos == p2.pos

    def test_seed_matters(self):
        fabric = Fabric(get_device("aws-f1"))
        p1 = Placer(fabric, seed=1).place(chain_netlist())
        p2 = Placer(fabric, seed=2).place(chain_netlist())
        assert p1.pos != p2.pos

    def test_chain_locality(self):
        """Connected cells land near each other."""
        nl = chain_netlist(30)
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        for i in range(1, 30):
            a = placement.pos[f"c{i - 1}"]
            b = placement.pos[f"c{i}"]
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) < 25

    def test_bram_floorplan_contiguous(self):
        nl = Netlist("banks")
        src = nl.new_cell("src", CellKind.FF, ffs=32, width=32, delay_ns=0.1)
        brams = [
            nl.new_cell(f"bank{i}", CellKind.BRAM, brams=1, delay_ns=0.8)
            for i in range(300)
        ]
        nl.connect("w", src, [(b, "din") for b in brams])
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        for i in range(1, 300):
            a = placement.pos[f"bank{i - 1}"]
            b = placement.pos[f"bank{i}"]
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 30

    def test_port_pinned_to_edge(self):
        nl = chain_netlist()
        pad = nl.new_cell("pad", CellKind.PORT, delay_ns=0.1)
        nl.connect("io", pad, [(nl.cells["c0"], "ext")])
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        assert placement.pos["pad"][0] <= 2.0

    def test_big_macro_does_not_displace_small_logic(self):
        nl = chain_netlist(10)
        nl.new_cell("macro", CellKind.CTRL, luts=300_000, ffs=300_000, delay_ns=0.25)
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        # the small chain stays compact despite the 7000-tile macro
        xs = [placement.pos[f"c{i}"][0] for i in range(10)]
        ys = [placement.pos[f"c{i}"][1] for i in range(10)]
        assert (max(xs) - min(xs)) + (max(ys) - min(ys)) < 40

    def test_control_sink_distance_pays_full_radius(self):
        nl = Netlist("n")
        a = nl.new_cell("a", CellKind.FF, ffs=1, delay_ns=0.1)
        macro = nl.new_cell("m", CellKind.CTRL, luts=100_000, ffs=100_000, delay_ns=0.25)
        nl.connect("e", a, [(macro, "ce")])
        fabric = Fabric(get_device("aws-f1"))
        placement = Placer(fabric).place(nl)
        assert placement.distance(a, macro, control_sink=True) > placement.distance(
            a, macro
        )

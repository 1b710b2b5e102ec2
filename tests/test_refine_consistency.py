"""The fast refine engine is pinned to the reference implementation.

The placer's phase-3 refinement was rewritten from an O(cells × degree)
per-pass rescan into a cached-summary engine (corner-cost maxima with
lazy invalidation plus search-box fail guards).  The rewrite must be a
pure optimization: over randomized netlists and every registered-design
shape knob we can cheaply reach, both engines must accept the *same*
moves and land every cell on the *same* tiles.

The reference engine is :class:`oracles.refine.ReferenceRefinePlacer`, a
``Placer`` subclass that overrides only the refine pass; everything
upstream of phase 3 (BRAM serpentine, greedy seating) is identical for a
fixed seed, so whole-``place()`` comparison isolates the refine rewrite.
"""

from __future__ import annotations

import random

import pytest

from oracles.refine import ReferenceRefinePlacer
from repro.physical.device import get_device
from repro.physical.fabric import Fabric
from repro.physical.placement import Placer
from repro.rtl.netlist import CellKind, Netlist

KINDS = (
    (CellKind.LOGIC, {"luts": (1, 600)}),
    (CellKind.FF, {"ffs": (1, 900)}),
    (CellKind.DSP, {"dsps": (1, 4)}),
    (CellKind.BRAM, {"brams": (1, 2)}),
    (CellKind.CTRL, {"luts": (1, 40)}),
    (CellKind.FIFO, {"luts": (4, 64), "ffs": (8, 64)}),
)


def _random_netlist(seed: int, n_cells: int) -> Netlist:
    rng = random.Random(seed)
    netlist = Netlist(name=f"rand{seed}")
    cells = []
    for i in range(n_cells):
        kind, areas = KINDS[rng.randrange(len(KINDS))]
        attrs = {name: rng.randint(lo, hi) for name, (lo, hi) in areas.items()}
        cells.append(netlist.new_cell(f"c{i}", kind, **attrs))
    for i in range(rng.randint(1, 3)):
        cells.append(netlist.new_cell(f"io{i}", CellKind.PORT))
    for i in range(int(n_cells * 1.5)):
        driver = cells[rng.randrange(len(cells))]
        n_sinks = rng.randint(1, 6)
        sinks = [
            (cells[rng.randrange(len(cells))], f"p{j}")
            for j in range(n_sinks)
        ]
        netlist.connect(f"n{i}", driver, sinks)
    return netlist


ENGINES = {"fast": Placer, "reference": ReferenceRefinePlacer}


def _place(engine: str, netlist: Netlist, seed: int, device: str):
    placer = ENGINES[engine](Fabric(get_device(device)), seed=seed)
    placement = placer.place(netlist, refine_passes=3)
    return placement, placer


@pytest.mark.parametrize("seed", range(8))
def test_fast_refine_matches_reference_on_random_netlists(seed):
    netlist = _random_netlist(seed, n_cells=40 + 25 * seed)
    device = ("zc706", "aws-f1")[seed % 2]
    fast, fast_placer = _place("fast", netlist, 2020 + seed, device)
    ref, ref_placer = _place("reference", netlist, 2020 + seed, device)

    assert fast.pos == ref.pos
    assert fast.radius == ref.radius
    assert fast_placer._chunks == ref_placer._chunks


def _recording(base):
    """``base`` extended to record every accepted refine move, in order."""

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.accepted = []

        def _refine_trial(self, cell, st, occupancy, placement, threshold):
            result = super()._refine_trial(
                cell, st, occupancy, placement, threshold
            )
            if result:
                self.accepted.append(cell.name)
            return result

    return Recording


def test_engines_agree_on_accepted_move_sequence():
    """The accepted-move *sequences* match, not just final coordinates.

    (Attempt counts legitimately differ — the fast engine's fail guards
    exist precisely to skip trials the reference engine re-runs and
    re-rejects — but every move one engine accepts, the other must accept
    too, in the same order.)
    """
    netlist = _random_netlist(99, n_cells=160)
    moves = {}
    for engine, base in ENGINES.items():
        placer = _recording(base)(Fabric(get_device("aws-f1")), seed=7)
        placer.place(netlist, refine_passes=3)
        moves[engine] = placer.accepted
    assert moves["fast"], "refine accepted no moves — test is vacuous"
    assert moves["fast"] == moves["reference"]

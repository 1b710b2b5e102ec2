"""Column-based fabric model of an FPGA.

The die is a grid of tiles.  Most columns are CLB columns (logic + FFs);
BRAM and DSP columns are interleaved at regular intervals, like real Xilinx
parts.  Distances are measured in tile units; the net-delay model converts
tile distance to nanoseconds.

Capacity accounting is per-tile:

* CLB tile: ``TILE_LUT_EQ`` "LUT-equivalents" (FF pairs count half a LUT);
* BRAM tile: one BRAM36;
* DSP tile: two DSP48s.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from typing import Dict, List, Optional, Tuple

from repro.errors import PlacementError
from repro.physical.device import Device

#: LUT-equivalents per CLB tile (64 LUTs; FFs ride along at 2-per-LUT-eq).
TILE_LUT_EQ = 64
#: DSP48 slices per DSP-column tile.
TILE_DSP = 2

CLB, BRAM_COL, DSP_COL = "clb", "bram", "dsp"

#: Capacity of one tile of each column kind, in that kind's unit.
KIND_CAPACITY = {CLB: TILE_LUT_EQ, BRAM_COL: 1, DSP_COL: TILE_DSP}


class Fabric:
    """A sited tile grid derived from a :class:`Device`'s capacities."""

    def __init__(self, device: Device) -> None:
        self.device = device
        clb_tiles = math.ceil(device.luts / TILE_LUT_EQ)
        bram_tiles = device.bram36
        dsp_tiles = math.ceil(device.dsps / TILE_DSP)
        total = clb_tiles + bram_tiles + dsp_tiles
        self.rows = max(8, int(math.sqrt(total)))
        clb_cols = math.ceil(clb_tiles / self.rows)
        bram_cols = math.ceil(bram_tiles / self.rows)
        dsp_cols = math.ceil(dsp_tiles / self.rows)
        self.cols = clb_cols + bram_cols + dsp_cols
        self.col_types = self._interleave(clb_cols, bram_cols, dsp_cols)
        #: Sorted column indices of each kind (the capacity search's index).
        self.kind_cols: Dict[str, List[int]] = {
            kind: [x for x, t in enumerate(self.col_types) if t == kind]
            for kind in KIND_CAPACITY
        }

    @staticmethod
    def _interleave(clb: int, bram: int, dsp: int) -> List[str]:
        """Spread BRAM/DSP columns evenly among CLB columns."""
        total = clb + bram + dsp
        types = [CLB] * total
        if bram:
            step = total / bram
            for i in range(bram):
                types[min(total - 1, int((i + 0.5) * step))] = BRAM_COL
        if dsp:
            step = total / dsp
            for i in range(dsp):
                # Walk right from the ideal slot to the nearest CLB column.
                j = min(total - 1, int((i + 0.33) * step))
                while j < total and types[j] != CLB:
                    j += 1
                if j >= total:
                    j = types.index(CLB)
                types[j] = DSP_COL
        return types

    def col_type(self, x: int) -> str:
        return self.col_types[x]

    def tile_capacity(self, x: int) -> int:
        """Capacity of one tile in column ``x``, in that column's unit."""
        return KIND_CAPACITY[self.col_types[x]]

    @property
    def center(self) -> Tuple[int, int]:
        return self.cols // 2, self.rows // 2


class Occupancy:
    """Mutable per-tile free-capacity tracker used during placement."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self._used: Dict[Tuple[int, int], int] = {}
        #: ``(cx, cy, radius)`` Chebyshev bound of the tiles examined by the
        #: most recent :meth:`allocate` call.  The allocation result is a
        #: pure function of the free capacities inside this box: a search
        #: re-run against an occupancy unchanged within the box walks the
        #: same tiles in the same order and returns identical chunks
        #: (placement's refine uses this to skip provably-identical
        #: failed trial moves).
        self.last_search: Optional[Tuple[int, int, int]] = None

    def free_at(self, x: int, y: int) -> int:
        return self.fabric.tile_capacity(x) - self._used.get((x, y), 0)

    def take(self, x: int, y: int, amount: int) -> int:
        """Consume up to ``amount`` units at a tile; returns amount taken."""
        free = self.free_at(x, y)
        taken = min(free, amount)
        if taken > 0:
            self._used[(x, y)] = self._used.get((x, y), 0) + taken
        return taken

    def release(self, chunks) -> None:
        """Return previously-allocated ``[(x, y, units)]`` chunks."""
        for x, y, units in chunks:
            remaining = self._used.get((x, y), 0) - units
            if remaining > 0:
                self._used[(x, y)] = remaining
            else:
                self._used.pop((x, y), None)

    def allocate(
        self, cx: int, cy: int, col_kind: str, amount: int
    ) -> List[Tuple[int, int, int]]:
        """Allocate ``amount`` units of ``col_kind`` capacity near (cx, cy).

        Tiles are visited ring by ring in increasing Chebyshev distance.
        Each ring runs clockwise: top edge left to right, right edge top to
        bottom, bottom edge right to left, left edge bottom to top.  Only
        columns of ``col_kind`` are walked: the top and bottom edges cut the
        kind's sorted column list to the ring's span, and a side edge is
        walked only when its column has the kind.  Every tile of another
        kind would be skipped anyway, so the visiting order of the matching
        tiles is exactly that of a full spiral over every tile.

        Returns [(x, y, units)] chunks.  Raises :class:`PlacementError` when
        the device is out of that resource.
        """
        fabric = self.fabric
        cols, rows, col_types = fabric.cols, fabric.rows, fabric.col_types
        kind_cols = fabric.kind_cols[col_kind]
        cap = KIND_CAPACITY[col_kind]
        used = self._used
        chunks: List[Tuple[int, int, int]] = []
        remaining = amount
        # ``radius`` ends as the ring of the last matching tile visited,
        # including the one visited after the demand is met.
        radius = 0
        for r in range(max(cols, rows) + 1):
            x0, x1, y0, y1 = cx - r, cx + r, cy - r, cy + r
            lo = bisect_left(kind_cols, x0)
            top = (
                zip(kind_cols[lo:bisect_right(kind_cols, x1)], repeat(y0))
                if 0 <= y0 < rows else ()
            )
            right = (
                zip(repeat(x1), range(max(y0 + 1, 0), min(y1, rows - 1) + 1))
                if 0 <= x1 < cols and col_types[x1] == col_kind else ()
            )
            bottom = (
                zip(reversed(kind_cols[lo:bisect_left(kind_cols, x1)]), repeat(y1))
                if 0 <= y1 < rows else ()
            )
            left = (
                zip(repeat(x0), range(min(y1 - 1, rows - 1), max(y0, -1), -1))
                if 0 <= x0 < cols and col_types[x0] == col_kind else ()
            )
            for x, y in chain(top, right, bottom, left):
                radius = r
                if remaining <= 0:
                    break
                free = cap - used.get((x, y), 0)
                if free > 0:
                    taken = min(free, remaining)
                    used[(x, y)] = cap - free + taken
                    chunks.append((x, y, taken))
                    remaining -= taken
            else:
                continue
            break  # the tile after the demand was met has been visited
        self.last_search = (cx, cy, radius)
        if remaining > 0:
            raise PlacementError(
                f"device {self.fabric.device.name!r} out of {col_kind} capacity "
                f"({remaining} of {amount} units unplaced)"
            )
        return chunks

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
from bisect import bisect_left
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
        #: Sorted column indices of each kind; bit ``i`` of an occupancy's
        #: per-row free mask of that kind is column ``kind_cols[kind][i]``.
        self.kind_cols: Dict[str, List[int]] = {
            kind: [x for x, t in enumerate(self.col_types) if t == kind]
            for kind in KIND_CAPACITY
        }
        #: ``kind_rank[kind][x]``: how many columns of ``kind`` lie left of
        #: column ``x`` (``x`` in ``0..cols``), i.e. ``bisect_left`` into
        #: ``kind_cols[kind]`` tabulated.  For a column of that kind it is
        #: the column's bit in the per-row free masks.
        self.kind_rank: Dict[str, List[int]] = {
            kind: [bisect_left(xs, x) for x in range(self.cols + 1)]
            for kind, xs in self.kind_cols.items()
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
    """Mutable per-tile free-capacity tracker used during placement.

    Next to the per-tile use counts it keeps an index of the tiles that
    still have free capacity, as int bitmasks:

    * per column kind, one mask per row over that kind's columns: bit ``i``
      of ``_row_free[kind][y]`` is set iff tile
      ``(fabric.kind_cols[kind][i], y)`` is not full;
    * one mask per column over its rows: bit ``y`` of ``_col_free[x]`` is
      set iff tile ``(x, y)`` is not full.

    :meth:`take`, :meth:`release` and :meth:`allocate` flip both bits when
    a tile fills up or gets capacity back, so :meth:`allocate` reads each
    ring edge's free tiles from one mask and never visits a full tile.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self._used: Dict[Tuple[int, int], int] = {}
        self._row_free: Dict[str, List[int]] = {
            kind: [(1 << len(xs)) - 1] * fabric.rows
            for kind, xs in fabric.kind_cols.items()
        }
        self._col_free: List[int] = [(1 << fabric.rows) - 1] * fabric.cols
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

    def _mark(self, x: int, y: int, full: bool) -> None:
        """Clear (``full``) or set tile (x, y)'s bits in the free index."""
        kind = self.fabric.col_types[x]
        row_bit = 1 << self.fabric.kind_rank[kind][x]
        row_free = self._row_free[kind]
        if full:
            row_free[y] &= ~row_bit
            self._col_free[x] &= ~(1 << y)
        else:
            row_free[y] |= row_bit
            self._col_free[x] |= 1 << y

    def take(self, x: int, y: int, amount: int) -> int:
        """Consume up to ``amount`` units at a tile; returns amount taken."""
        free = self.free_at(x, y)
        taken = min(free, amount)
        if taken > 0:
            self._used[(x, y)] = self._used.get((x, y), 0) + taken
            if taken == free:
                self._mark(x, y, full=True)
        return taken

    def release(self, chunks) -> None:
        """Return previously-allocated ``[(x, y, units)]`` chunks."""
        tile_capacity = self.fabric.tile_capacity
        for x, y, units in chunks:
            used = self._used.get((x, y), 0)
            remaining = used - units
            if remaining > 0:
                self._used[(x, y)] = remaining
            else:
                self._used.pop((x, y), None)
            if used >= tile_capacity(x) > remaining:
                self._mark(x, y, full=False)

    def allocate(
        self, cx: int, cy: int, col_kind: str, amount: int
    ) -> List[Tuple[int, int, int]]:
        """Allocate ``amount`` units of ``col_kind`` capacity near (cx, cy).

        Tiles are visited ring by ring in increasing Chebyshev distance.
        Each ring runs clockwise: top edge left to right, right edge top to
        bottom, bottom edge right to left, left edge bottom to top.  Only
        tiles of ``col_kind`` with free capacity are visited: a top or
        bottom edge reads them from its row's mask cut to the ring's span of
        that kind's columns, a side edge from its column's mask cut to the
        ring's rows (when the column has the kind).  Tiles of other kinds
        and full tiles give nothing, so the chunks are exactly those of a
        full spiral over every tile.

        ``last_search``'s radius is that of the spiral, which stops at the
        first tile of the kind after the demand is met, free or not: the
        ring of that tile, found from the geometry alone (the rest of the
        edge, the later edges, then the next ring holding a tile of the
        kind), or the last ring holding one when there is none.

        Returns [(x, y, units)] chunks.  Raises :class:`PlacementError` when
        the device is out of that resource, and ``ValueError`` when (cx, cy)
        is not a tile of the die.
        """
        fabric = self.fabric
        cols, rows = fabric.cols, fabric.rows
        if not (0 <= cx < cols and 0 <= cy < rows):
            raise ValueError(f"allocation target ({cx}, {cy}) is off the die")
        kind_cols = fabric.kind_cols[col_kind]
        rank = fabric.kind_rank[col_kind]
        row_free = self._row_free[col_kind]
        col_free = self._col_free
        cap = KIND_CAPACITY[col_kind]
        used = self._used
        n = len(kind_cols)
        chunks: List[Tuple[int, int, int]] = []
        remaining = amount
        met = remaining <= 0
        radius = 0
        # The farthest ring that holds a tile of this kind.
        last = (
            max(cy, rows - 1 - cy, cx - kind_cols[0], kind_cols[-1] - cx) if n else -1
        )
        for r in range(last + 1):
            x0 = cx - r
            x1 = cx + r
            y0 = cy - r
            y1 = cy + r
            # Columns of the kind in [x0, x1] are kind_cols[lo:hi], and
            # those in [x0, x1) are kind_cols[lo:mid].
            lo = rank[x0] if x0 > 0 else 0
            if x1 < cols:
                mid = rank[x1]
                hi = rank[x1 + 1]
            else:
                mid = hi = n
            ya = y0 + 1 if y0 >= 0 else 0
            yr = y1 if y1 < rows else rows - 1
            yl = y1 - 1 if y1 < rows else rows - 1
            # Each edge's free mask, or None when the edge has no tile of
            # the kind; bit i is the edge's i-th tile counted from its low
            # column (top, bottom) or its low row (right, left).
            top = (
                (row_free[y0] >> lo) & ((1 << (hi - lo)) - 1)
                if y0 >= 0 and hi > lo else None
            )
            right = (
                (col_free[x1] >> ya) & ((1 << (yr - ya + 1)) - 1)
                if hi > mid and yr >= ya else None
            )
            bottom = (
                (row_free[y1] >> lo) & ((1 << (mid - lo)) - 1)
                if y1 < rows and mid > lo else None
            )
            left = (
                (col_free[x0] >> ya) & ((1 << (yl - ya + 1)) - 1)
                if x0 >= 0 and rank[x0 + 1] > lo and yl >= ya else None
            )
            if top is None and right is None and bottom is None and left is None:
                continue
            radius = r
            if met:
                break  # the first tile after the demand was met is here
            if not (top or right or bottom or left):
                continue
            edges = (top, right, bottom, left)
            for e in range(4):
                m = edges[e]
                while m:
                    if e < 2:  # top and right run up their bit order
                        low = m & -m
                        i = low.bit_length() - 1
                        m ^= low
                    else:
                        i = m.bit_length() - 1
                        m ^= 1 << i
                    if e == 0:
                        x, y = kind_cols[lo + i], y0
                    elif e == 1:
                        x, y = x1, ya + i
                    elif e == 2:
                        x, y = kind_cols[lo + i], y1
                    else:
                        x, y = x0, ya + i
                    free = cap - used.get((x, y), 0)
                    if free > remaining:
                        used[(x, y)] = cap - free + remaining
                        chunks.append((x, y, remaining))
                        remaining = 0
                    else:
                        used[(x, y)] = cap
                        chunks.append((x, y, free))
                        remaining -= free
                        row_free[y] &= ~(1 << rank[x])
                        col_free[x] &= ~(1 << y)
                    if remaining == 0:
                        break
                if remaining == 0:
                    break
            if remaining == 0:
                met = True
                # Stop here if a tile of the kind follows on this ring.
                if e == 0:
                    more = i < hi - lo - 1
                elif e == 1:
                    more = i < yr - ya
                else:
                    more = i > 0  # bottom and left run down their bit order
                if more or edges[e + 1:].count(None) < 3 - e:
                    break
        self.last_search = (cx, cy, radius)
        if remaining > 0:
            raise PlacementError(
                f"device {self.fabric.device.name!r} out of {col_kind} capacity "
                f"({remaining} of {amount} units unplaced)"
            )
        return chunks

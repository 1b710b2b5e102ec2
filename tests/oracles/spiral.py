"""Reference capacity search: a full spiral over every tile of the die.

This is the formulation :meth:`repro.physical.fabric.Occupancy.allocate`
replaced.  It walks every in-bounds tile of every Chebyshev ring around
the target and drops the tiles whose column is the wrong kind only after
generating them.  The production search visits only the tiles of the
requested kind that still have free capacity; the equivalence tests
assert that both return the same chunks, leave the same occupancy and
record the same ``last_search`` box.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import PlacementError
from repro.physical.fabric import Fabric, Occupancy


def in_bounds(fabric: Fabric, x: int, y: int) -> bool:
    return 0 <= x < fabric.cols and 0 <= y < fabric.rows


def ring(fabric: Fabric, cx: int, cy: int, radius: int) -> Iterator[Tuple[int, int]]:
    """Tiles at Chebyshev distance ``radius`` from (cx, cy), in bounds.

    Radius 0 yields the center itself.  Deterministic clockwise order.
    """
    if radius == 0:
        if in_bounds(fabric, cx, cy):
            yield (cx, cy)
        return
    x0, x1 = cx - radius, cx + radius
    y0, y1 = cy - radius, cy + radius
    for x in range(x0, x1 + 1):
        if in_bounds(fabric, x, y0):
            yield (x, y0)
    for y in range(y0 + 1, y1 + 1):
        if in_bounds(fabric, x1, y):
            yield (x1, y)
    for x in range(x1 - 1, x0 - 1, -1):
        if in_bounds(fabric, x, y1):
            yield (x, y1)
    for y in range(y1 - 1, y0, -1):
        if in_bounds(fabric, x0, y):
            yield (x0, y)


def nearest_tiles(
    fabric: Fabric,
    cx: int,
    cy: int,
    col_kind: str,
    limit_radius: Optional[int] = None,
) -> Iterator[Tuple[int, int]]:
    """Tiles of the requested column type by increasing ring distance."""
    max_radius = (
        limit_radius if limit_radius is not None else max(fabric.cols, fabric.rows)
    )
    for radius in range(0, max_radius + 1):
        for x, y in ring(fabric, cx, cy, radius):
            if fabric.col_types[x] == col_kind:
                yield (x, y)


def allocate(
    occupancy: Occupancy, cx: int, cy: int, col_kind: str, amount: int
) -> List[Tuple[int, int, int]]:
    """:meth:`Occupancy.allocate` as a filter over the full spiral."""
    chunks: List[Tuple[int, int, int]] = []
    remaining = amount
    radius = 0
    for x, y in nearest_tiles(occupancy.fabric, cx, cy, col_kind):
        radius = max(radius, abs(x - cx), abs(y - cy))
        if remaining <= 0:
            break
        taken = occupancy.take(x, y, remaining)
        if taken:
            chunks.append((x, y, taken))
            remaining -= taken
    occupancy.last_search = (cx, cy, radius)
    if remaining > 0:
        raise PlacementError(
            f"device {occupancy.fabric.device.name!r} out of {col_kind} capacity "
            f"({remaining} of {amount} units unplaced)"
        )
    return chunks

"""Named, parameterized, digest-stable design transforms.

The paper applies its broadcast fixes to designs whose broadcast structure
was *created* by source-level transformations (unrolling in Fig. 1/2).  This
package turns those transformations into first-class objects so a search
can enumerate, compose, hash and replay them:

* a :class:`Transform` is a named rewrite with JSON-canonical parameters —
  the same (name, params) pair always produces the same rewritten design,
  and :meth:`Transform.digest` is stable across processes;
* a :class:`TransformPlan` is an ordered composition of transforms; its
  wire form (:meth:`TransformPlan.to_spec`) rides inside ``FlowRequest`` so
  plans are digest-visible to the service's coalescing layer;
* every concrete transform must be interp-equivalent: applying it must not
  change the design's observable behaviour under
  :class:`repro.sim.dataflow.DataflowSim` (outputs and final buffer
  contents).  The fuzz harness enforces this as a metamorphic check.

Transforms never mutate their input design; they clone and rewrite.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.errors import TransformError
from repro.hashing import canonical_json, content_digest
from repro.ir.dfg import DFG
from repro.ir.ops import Opcode
from repro.ir.program import Design, Kernel, Loop

#: Schema tag for plan digests (bump on encoding changes).
PLAN_SCHEMA = "repro-transform-plan/1"
#: Schema tag for single-transform digests.
TRANSFORM_SCHEMA = "repro-transform/1"

_REGISTRY: Dict[str, Type["Transform"]] = {}


def register_transform(cls: Type["Transform"]) -> Type["Transform"]:
    """Class decorator adding ``cls`` to the global transform registry."""
    if not cls.name or cls.name in _REGISTRY:
        raise TransformError(f"transform name {cls.name!r} invalid or duplicate")
    _REGISTRY[cls.name] = cls
    return cls


def transform_names() -> List[str]:
    return sorted(_REGISTRY)


def transform_type(name: str) -> Type["Transform"]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise TransformError(
            f"unknown transform {name!r}; known: {', '.join(transform_names())}"
        ) from None


class Transform:
    """Base class: a named design rewrite with canonical parameters.

    Subclasses set :attr:`name`, validate/normalize their parameters in
    ``__init__`` (every parameter value must be JSON-canonical: str, int,
    float or bool), and implement :meth:`apply`.  ``apply`` must either
    return a *new* design or raise :class:`TransformError` when the rewrite
    is inapplicable — it never returns the input object and never mutates
    it.
    """

    name: str = ""

    def __init__(self, **params: object) -> None:
        self._params: Dict[str, object] = {k: params[k] for k in sorted(params)}
        canonical_json(self._params)  # fail fast on non-JSON parameters

    @property
    def params(self) -> Dict[str, object]:
        return dict(self._params)

    def spec(self) -> List[object]:
        """Wire form: ``[name, {param: value}]`` (JSON-canonical)."""
        return [self.name, dict(self._params)]

    def digest(self) -> str:
        return content_digest({"schema": TRANSFORM_SCHEMA, "spec": self.spec()})

    def apply(self, design: Design) -> Design:
        raise NotImplementedError

    def applicable(self, design: Design) -> bool:
        """Whether :meth:`apply` would succeed on ``design``."""
        try:
            self.apply(design)
        except TransformError:
            return False
        return True

    @classmethod
    def candidates(cls, design: Design) -> List["Transform"]:
        """Deterministically enumerate applicable instances for ``design``."""
        return []

    def _key(self) -> Tuple:
        return (self.name, canonical_json(self._params))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transform) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self._params.items())
        return f"{type(self).__name__}({args})"


class TransformPlan:
    """An ordered composition of transforms applied to one design.

    Plans are immutable value objects: equality and :meth:`digest` depend
    only on the transform sequence, and :meth:`to_spec`/:meth:`from_spec`
    round-trip through plain JSON so a plan can ride in a
    :class:`~repro.service.request.FlowRequest`.
    """

    __slots__ = ("transforms",)

    def __init__(self, transforms: Iterable[Transform] = ()) -> None:
        self.transforms: Tuple[Transform, ...] = tuple(transforms)
        for transform in self.transforms:
            if not isinstance(transform, Transform):
                raise TransformError(f"not a Transform: {transform!r}")

    # -- application ---------------------------------------------------
    def apply(self, design: Design) -> Design:
        """Apply every transform in order; returns a new design.

        An empty plan returns the input design unchanged (no clone), so
        plan-free flows pay nothing.
        """
        for transform in self.transforms:
            design = transform.apply(design)
        return design

    # -- wire form -----------------------------------------------------
    def to_spec(self) -> List[List[object]]:
        return [t.spec() for t in self.transforms]

    @classmethod
    def from_spec(cls, spec: object) -> "TransformPlan":
        """Build a plan from its wire form (or pass a plan through).

        Accepts ``None`` / ``()`` (empty plan), an existing plan, or a
        sequence of ``[name, {params}]`` pairs (lists or tuples; params may
        be a dict or a sequence of key/value pairs).
        """
        if spec is None:
            return cls()
        if isinstance(spec, TransformPlan):
            return spec
        transforms: List[Transform] = []
        for entry in spec:
            try:
                name, params = entry
            except (TypeError, ValueError):
                raise TransformError(f"bad plan entry {entry!r}") from None
            if not isinstance(params, dict):
                params = dict(params)
            try:
                transforms.append(transform_type(str(name))(**params))
            except TypeError as exc:
                raise TransformError(
                    f"bad parameters for transform {name!r}: {exc}"
                ) from None
        return cls(transforms)

    def digest(self) -> str:
        return content_digest({"schema": PLAN_SCHEMA, "transforms": self.to_spec()})

    # -- composition ---------------------------------------------------
    def then(self, transform: Transform) -> "TransformPlan":
        return TransformPlan(self.transforms + (transform,))

    def without_last(self) -> "TransformPlan":
        return TransformPlan(self.transforms[:-1])

    # -- value-object protocol -----------------------------------------
    def __iter__(self) -> Iterator[Transform]:
        return iter(self.transforms)

    def __len__(self) -> int:
        return len(self.transforms)

    def __bool__(self) -> bool:
        return bool(self.transforms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TransformPlan) and self.transforms == other.transforms

    def __hash__(self) -> int:
        return hash(self.transforms)

    def __repr__(self) -> str:
        return f"TransformPlan({list(self.transforms)!r})"


#: The canonical empty plan.
EMPTY_PLAN = TransformPlan()


def all_candidates(design: Design) -> List[Transform]:
    """Every applicable transform instance, in deterministic order."""
    out: List[Transform] = []
    for name in transform_names():
        out.extend(_REGISTRY[name].candidates(design))
    return out


# ----------------------------------------------------------------------
# Shared helpers for concrete transforms
# ----------------------------------------------------------------------
def find_loop(design: Design, loop_name: str) -> Tuple[Kernel, Loop]:
    """Locate the unique loop named ``loop_name`` across all kernels."""
    matches = [
        (kernel, loop)
        for kernel, loop in design.all_loops()
        if loop.name == loop_name
    ]
    if not matches:
        raise TransformError(f"no loop named {loop_name!r} in design {design.name!r}")
    if len(matches) > 1:
        raise TransformError(f"loop name {loop_name!r} is ambiguous in {design.name!r}")
    return matches[0]


def unique_loop_names(design: Design) -> List[str]:
    """Loop names that occur exactly once (addressable by transforms)."""
    counts: Dict[str, int] = {}
    for _kernel, loop in design.all_loops():
        counts[loop.name] = counts.get(loop.name, 0) + 1
    return [name for name, n in counts.items() if n == 1]


def check_rate_change(
    design: Design,
    loop: Loop,
    factor: int,
    exclude_fifo: Optional[str] = None,
) -> None:
    """Reject rate changes on ``loop`` that the simulation could observe.

    Unrolling merges ``factor`` iterations into one firing, so the loop's
    firing rate drops by ``factor`` while its per-firing channel traffic
    grows by the same amount.  That is observable in two ways:

    * an internal FIFO the loop touches ``n`` times per iteration needs
      ``factor * n`` elements (or slots) per firing — if the FIFO is
      shallower than that, ``can_fire`` can never be satisfied again and
      the design deadlocks (``exclude_fifo`` skips the channel a widening
      is about to pack down to one access);
    * loops synchronize through FIFO handshakes only, so a buffer shared
      with another loop is an unsynchronized race whose outcome depends on
      relative firing rates — changing the rate changes what racy loads
      observe.
    """
    fifo_ops: Dict[str, int] = {}
    loads = set()
    stores = set()
    for op in loop.body.ops:
        fifo = op.attrs.get("fifo")
        if fifo is not None and not fifo.external and fifo.name != exclude_fifo:
            fifo_ops[fifo.name] = fifo_ops.get(fifo.name, 0) + 1
        if op.opcode is Opcode.LOAD:
            loads.add(op.attrs["buffer"].name)
        elif op.opcode is Opcode.STORE:
            stores.add(op.attrs["buffer"].name)
    for name, count in fifo_ops.items():
        depth = design.fifos[name].depth
        if depth < factor * count:
            raise TransformError(
                f"loop {loop.name!r}: fifo {name!r} depth {depth} < "
                f"{factor}x{count} accesses per merged firing (deadlock)"
            )
    for _kernel, other in design.all_loops():
        if other is loop:
            continue
        other_loads = set()
        other_stores = set()
        for op in other.body.ops:
            if op.opcode is Opcode.LOAD:
                other_loads.add(op.attrs["buffer"].name)
            elif op.opcode is Opcode.STORE:
                other_stores.add(op.attrs["buffer"].name)
        racy = (stores & (other_loads | other_stores)) | (loads & other_stores)
        if racy:
            raise TransformError(
                f"loop {loop.name!r}: buffers {sorted(racy)} are shared with "
                f"loop {other.name!r}; rate change would alter the race"
            )


def clone_op_into(out: DFG, op, mapping: Dict) -> None:
    """Clone one operation into ``out`` under a value ``mapping``.

    Mirrors :meth:`DFG.clone`'s per-op logic so rewrites that intercept
    selected ops can fall back to a faithful copy for the rest.
    """
    if op.opcode is Opcode.CONST:
        mapping[op.result] = out.const(
            op.attrs["value"], op.result.type, name=op.result.name
        )
        return
    new_op = out.add_op(
        op.opcode,
        [mapping[v] for v in op.operands],
        result_type=op.result.type if op.result is not None else None,
        attrs=dict(op.attrs),
        name=op.result.name if op.result is not None else None,
    )
    if op.result is not None:
        mapping[op.result] = new_op.result


def clone_inputs_into(out: DFG, body: DFG, mapping: Dict) -> None:
    """Declare ``body``'s inputs on ``out`` (preserving invariance flags)."""
    for value in body.inputs:
        mapping[value] = out.input(
            value.name, value.type, loop_invariant=value.loop_invariant
        )

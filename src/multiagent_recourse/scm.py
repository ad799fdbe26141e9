"""Finite-domain structural causal models.

A model is a list of variable declarations plus one exhaustive lookup-table
equation per endogenous variable.  Three operations carry the rest of the
package: forward evaluation of all endogenous variables from an exogenous
assignment, abduction (inverting the equations by a depth-first search over
the exogenous domains that cuts off every prefix already contradicting the
observation, with a uniqueness check), and mutilation via do-interventions
that pin variables to constants.  Composing them yields counterfactual
states: abduct the factual world, then re-evaluate it with the action's pins
laid over the equations.  A pin overlay gives the same state as evaluating
the mutilated model that ``intervene`` builds, without building it.

Building a model compiles it, and compiling is validating: each variable
gets a map from its domain values to their positions, and each equation
becomes a flat tuple of the target's positions, one per parent row, rows
numbered in mixed radix over the parent domains (the order of
``itertools.product``).  Evaluation and abduction run on these positions,
so they hash no values; values are converted to positions and back only
where an operation takes or returns them.  The maps key an integral value
by its ``int`` (``_key``), which hashes and compares equal to the
``Fraction`` but costs no Python-level ``Fraction.__hash__``; an int literal
is looked up as it is.  Each declaration also gives its domain on one
integer scale, numerators over a common denominator (``_integer_scale``),
from which the solver's cost terms are built as ints.

A model file is read straight into these tuples (``files``).  Such an
equation builds its ``table`` of values only when asked for it
(``scm_to_dict``, equality, ``repr``).

All values are exact rationals, and models are immutable after construction.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Any, Iterable, Mapping, NoReturn

from .errors import (
    CycleError,
    DomainError,
    DuplicateEquationError,
    IncompleteTableError,
    MissingExogenousError,
    NonInvertibleError,
    ScmValidationError,
)
from .values import Record, as_value, lazy_names, shown_repr, shown_value

EXOGENOUS = "exogenous"
ENDOGENOUS = "endogenous"

# A (possibly partial) assignment of values to variables.
Assignment = dict[str, Fraction]
# The same, as positions in each variable's declared domain.
Positions = dict[str, int]


def _key(value: Fraction) -> int | Fraction:
    """``value``'s key in a value->position map: its ``int`` when integral,
    which has the same hash and equality as the ``Fraction`` but is hashed in
    C; otherwise the value itself."""
    return value.numerator if value.denominator == 1 else value


def _literal_key(raw: Any) -> int | Fraction:
    """The map key of a literal: an int is its own key (a bool is not an int
    here), and anything else is read by ``as_value`` first."""
    kind = type(raw)
    if kind is int:
        return raw
    return _key(raw if kind is Fraction else as_value(raw))


def _refuse_string(record: Record, field: str, raw: Any) -> None:
    """A sequence field is not a string, which would be read one character at a time."""
    if isinstance(raw, str):
        owner = type(record).__name__
        raise ScmValidationError(
            f"{owner} field {field!r} must be a sequence, not the string {shown_repr(raw)}"
        )


class VariableDecl(Record):
    """One variable: its kind and its ordered finite domain, each literal of
    which is read once by ``as_value``."""

    __slots__ = ("name", "kind", "domain", "_index", "_scale")
    _fields = ("name", "kind", "domain")

    def __init__(self, name: str, kind: str, domain: Iterable[Any]) -> None:
        _refuse_string(self, "domain", domain)
        literals = tuple(domain)
        self.name = name
        self.kind = kind
        self.domain = tuple(map(as_value, literals))
        # Domain value, as its _key -> its position; fewer entries than the
        # domain when a value repeats.  An int literal is its value's _key.
        self._index = {
            (raw if type(raw) is int else _key(value)): i
            for i, (raw, value) in enumerate(zip(literals, self.domain))
        }
        self._scale: tuple[int, tuple[int, ...]] | None = None

    def _integer_scale(self) -> tuple[int, tuple[int, ...]]:
        """The domain on one integer scale: ``(d, numerators)``, where ``d`` is
        the least common denominator and value i is ``numerators[i] / d``.
        Computed on first use and kept."""
        if self._scale is None:
            d = lcm(*(v.denominator for v in self.domain))
            self._scale = d, tuple(v.numerator * (d // v.denominator) for v in self.domain)
        return self._scale


class StructuralEquation(Record):
    """Total lookup table assigning ``target`` from an ordered tuple of parent values.

    An equation read from a model file holds positions instead: the parent
    and target domains it was read against and the target's position for each
    parent row.  ``table`` is then built the first time it is asked for.
    """

    __slots__ = ("target", "parents", "_table", "_positions")
    _fields = ("target", "parents", "table")

    def __init__(
        self, target: str, parents: tuple[str, ...], table: Mapping[tuple[Any, ...], Any]
    ) -> None:
        _refuse_string(self, "parents", parents)
        self.target = target
        self.parents = tuple(parents)
        self._table = {tuple(map(as_value, key)): as_value(out) for key, out in table.items()}
        self._positions: tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]] | None = None

    @classmethod
    def _from_positions(
        cls,
        target: str,
        parents: tuple[str, ...],
        domains: tuple[tuple[Fraction, ...], ...],
        outputs: tuple[int, ...],
    ) -> "StructuralEquation":
        """``domains`` holds each parent's domain, then the target's; ``outputs``
        the target's position for each parent row in ``product`` order."""
        eq = cls.__new__(cls)
        eq.target, eq.parents, eq._table, eq._positions = target, parents, None, (domains, outputs)
        return eq

    @property
    def table(self) -> dict[tuple[Fraction, ...], Fraction]:
        if self._table is None:
            domains, outputs = self._positions
            self._table = dict(zip(product(*domains[:-1]), map(domains[-1].__getitem__, outputs)))
        return self._table


class CausalGraph(Record):
    """Directed graph induced by the equations: one edge per parent-of-target pair."""

    __slots__ = _fields = ("nodes", "edges")

    def __init__(self, nodes: tuple[str, ...], edges: tuple[tuple[str, str], ...]) -> None:
        self.nodes = nodes
        self.edges = edges

    def in_degree(self, node: str) -> int:
        return sum(1 for _, to in self.edges if to == node)


class Scm(Record):
    """A validated model.  Construction runs every structural check.

    Only ``variables`` and ``equations`` take part in ``==`` and ``repr``; the
    other slots hold what ``_validate`` compiles from them.
    """

    # _compiled: per equation target, ((parent, its domain size), ...) and the
    # target's position for each parent row.
    __slots__ = ("variables", "equations", "_decls", "_order", "_compiled")
    _fields = ("variables", "equations")

    def __init__(
        self, variables: tuple[VariableDecl, ...], equations: tuple[StructuralEquation, ...]
    ) -> None:
        self.variables = variables
        self.equations = equations
        self.__post_init__()  # looked up on the class, so a wrapper set there sees each build

    def __post_init__(self) -> None:
        self.variables = tuple(self.variables)
        self.equations = tuple(self.equations)
        self._validate()

    # ------------------------------------------------------------- validation

    def _validate(self) -> None:
        decls: dict[str, VariableDecl] = {}
        for decl in self.variables:
            if decl.name in decls:
                raise ScmValidationError(f"variable {decl.name!r} declared twice")
            if decl.kind not in (EXOGENOUS, ENDOGENOUS):
                raise ScmValidationError(
                    f"variable {decl.name!r} has unknown kind {decl.kind!r}"
                )
            if not decl.domain:
                raise ScmValidationError(f"variable {decl.name!r} has an empty domain")
            if len(decl._index) != len(decl.domain):
                raise ScmValidationError(f"variable {decl.name!r} repeats a domain value")
            decls[decl.name] = decl
        self._decls = decls

        compiled = {}
        for eq in self.equations:
            decl = decls.get(eq.target)
            if decl is None:
                raise DomainError(f"equation targets undeclared variable {eq.target!r}")
            if decl.kind == EXOGENOUS:
                raise ScmValidationError(
                    f"exogenous variable {eq.target!r} cannot have an equation"
                )
            if eq.target in compiled:
                raise DuplicateEquationError(f"two equations assign {eq.target!r}")
            for parent in eq.parents:
                if parent not in decls:
                    raise DomainError(
                        f"equation for {eq.target!r} uses undeclared parent {parent!r}"
                    )
            compiled[eq.target] = self._compile(eq)
        self._compiled = compiled

        for decl in self.variables:
            if decl.kind == ENDOGENOUS and decl.name not in compiled:
                raise ScmValidationError(f"endogenous variable {decl.name!r} has no equation")

        self._order = self._topological_order()

    def _compile(self, eq: StructuralEquation) -> tuple[tuple[tuple[str, int], ...], tuple[int, ...]]:
        """The equation as positions: each parent with its domain size, and the
        target's position for each parent row in ``product`` order.

        An equation read as positions against these same domains is taken as
        it is.  Otherwise each row of its table is looked up once; a missing
        row, an output outside the target's domain, or more rows than the
        product (stray rows) is reported by ``_reject_table``.
        """
        domains = [self._decls[p].domain for p in eq.parents]
        radix = tuple(zip(eq.parents, map(len, domains)))
        if eq._positions is not None:
            read_against, outputs = eq._positions
            if read_against == (*domains, self._decls[eq.target].domain):
                return radix, outputs
        targets = self._decls[eq.target]._index
        table = eq.table
        try:
            outputs = tuple(targets[_key(table[row])] for row in product(*domains))
        except KeyError:
            self._reject_table(eq)
        if len(outputs) != len(table):
            self._reject_table(eq)
        return radix, outputs

    def _reject_table(self, eq: StructuralEquation) -> NoReturn:
        """Raise the error for a table that does not compile: stray rows first,
        then missing rows, then an output outside the declared domain."""
        expected = set(product(*(self._decls[p].domain for p in eq.parents)))
        seen = set(eq.table)
        stray = seen - expected
        if stray:
            raise DomainError(
                f"table for {eq.target!r} has a row outside the parent domains: "
                f"{_row_text(min(stray))}"
            )
        missing = expected - seen
        if missing:
            raise IncompleteTableError(
                f"table for {eq.target!r} is missing {len(missing)} row(s), "
                f"e.g. parents={_row_text(min(missing))}"
            )
        for key, out in eq.table.items():
            if _key(out) not in self._decls[eq.target]._index:
                raise DomainError(
                    f"table for {eq.target!r} maps {_row_text(key)} to {shown_value(out)}, "
                    f"outside the declared domain"
                )
        raise AssertionError(f"table for {eq.target!r} compiles")  # unreachable

    def _topological_order(self) -> tuple[str, ...]:
        # Kahn's algorithm over the endogenous targets; exogenous parents are free.
        # Each batch that becomes ready joins the queue in declaration order.
        declared = {d.name: i for i, d in enumerate(self.variables)}
        waiting: dict[str, int] = {}  # target -> parents not yet placed
        dependents: dict[str, list[str]] = {target: [] for target in self._compiled}
        for target, (radix, _) in self._compiled.items():
            parents = {p for p, _ in radix if p in dependents}
            waiting[target] = len(parents)
            for parent in parents:
                dependents[parent].append(target)
        ready = deque(sorted((t for t, n in waiting.items() if not n), key=declared.get))
        order: list[str] = []
        while ready:
            target = ready.popleft()
            order.append(target)
            newly = []
            for other in dependents[target]:
                waiting[other] -= 1
                if not waiting[other]:
                    newly.append(other)
            ready.extend(sorted(newly, key=declared.get))
        if len(order) < len(waiting):
            raise CycleError(
                "causal graph has a cycle through: "
                + ", ".join(sorted(waiting.keys() - set(order)))
            )
        return tuple(order)

    # -------------------------------------------------------------- accessors

    @property
    def exogenous_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.variables if d.kind == EXOGENOUS)

    @property
    def endogenous_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.variables if d.kind == ENDOGENOUS)

    def decl(self, name: str) -> VariableDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise DomainError(f"unknown variable {name!r}") from None

    def domain(self, name: str) -> tuple[Fraction, ...]:
        return self.decl(name).domain

    def _positions(self, assignment: Mapping[str, Any]) -> Positions:
        """Domain positions of a partial assignment; an unknown name or a value
        outside its variable's domain is a DomainError.

        Each value is read once, by ``_literal_key``.
        """
        out: Positions = {}
        for name, raw in assignment.items():
            key = _literal_key(raw)  # a bad literal is refused before the name is checked
            position = self.decl(name)._index.get(key)
            if position is None:
                raise DomainError(
                    f"value {shown_value(as_value(raw))} is outside the domain of {name!r}"
                )
            out[name] = position
        return out

    def _values(self, positions: Mapping[str, int]) -> Assignment:
        """The complete state, in declaration order, that ``positions`` encodes."""
        return {d.name: d.domain[positions[d.name]] for d in self.variables}

    # ------------------------------------------------------------- operations

    def evaluate(self, exogenous: Mapping[str, Any]) -> Assignment:
        """Complete world state from a full exogenous assignment, parents first.

        The input must assign exactly the exogenous variables: endogenous
        values are derived, never supplied.
        """
        given = self._positions(exogenous)
        for name in given:
            if self._decls[name].kind != EXOGENOUS:
                raise DomainError(
                    f"{name!r} is endogenous and cannot be supplied to evaluate"
                )
        missing = [n for n in self.exogenous_names if n not in given]
        if missing:
            raise MissingExogenousError(
                "missing exogenous assignment(s): " + ", ".join(missing)
            )
        return self._values(self._evaluate_exact(given))

    def _evaluate_exact(self, world: Positions, pins: Positions | None = None) -> Positions:
        """Complete state from the exogenous positions in ``world``, under ``pins``.

        Endogenous entries of ``world`` are ignored and recomputed.  Each pinned
        variable takes its pin in place of its equation or exogenous value,
        which is evaluating the model ``intervene(pins)`` would build: removing
        the pinned variables' incoming edges keeps ``self._order`` topological.
        """
        pins = pins or {}
        state = {**world, **pins}
        for target in self._order:
            if target not in pins:
                radix, outputs = self._compiled[target]
                row = 0
                for parent, size in radix:
                    row = row * size + state[parent]
                state[target] = outputs[row]
        return state

    def _output(self, target: str, state: Positions) -> int:
        """The position that ``target``'s equation gives for the parent positions in ``state``."""
        radix, outputs = self._compiled[target]
        row = 0
        for parent, size in radix:
            row = row * size + state[parent]
        return outputs[row]

    def abduct(self, observation: Mapping[str, Any]) -> Assignment:
        """The unique complete state consistent with a partial observation.

        Searches depth first over the exogenous variables in declaration order
        (observed exogenous variables are held fixed).  Each endogenous
        variable is computed as soon as its last exogenous ancestor has a
        value and compared with the observation there, so a prefix that
        already contradicts it is never extended.  Assignments are visited in
        the order of the full product of the domains, and the search stops at
        the second match.  Raises NonInvertibleError when zero or several
        exogenous assignments reproduce the observation.
        """
        observed = self._positions(observation)
        names = self.exogenous_names
        axes = [
            (observed[name],) if name in observed else range(len(self._decls[name].domain))
            for name in names
        ]
        # stages[d]: the targets whose last exogenous ancestor is names[d - 1],
        # each with its compiled table and its observed position (or None).
        depth = {name: d for d, name in enumerate(names, 1)}
        stages: list[list[tuple]] = [[] for _ in range(len(names) + 1)]
        for target in self._order:
            radix, outputs = self._compiled[target]
            depth[target] = max((depth[p] for p, _ in radix), default=0)
            stages[depth[target]].append((target, radix, outputs, observed.get(target)))

        state: Positions = {}

        def consistent(stage: int) -> bool:
            for target, radix, outputs, seen in stages[stage]:
                row = 0
                for parent, size in radix:
                    row = row * size + state[parent]
                state[target] = outputs[row]
                if seen is not None and outputs[row] != seen:
                    return False
            return True

        matches: list[Positions] = []
        next_index = [0] * len(names)
        level = 0 if consistent(0) else -1
        while level >= 0:
            if level == len(names):
                matches.append(dict(state))
                if len(matches) > 1:
                    break
                level -= 1
                continue
            index = next_index[level]
            if index == len(axes[level]):
                next_index[level] = 0
                level -= 1
                continue
            next_index[level] = index + 1
            state[names[level]] = axes[level][index]
            if consistent(level + 1):
                level += 1
        if not matches:
            raise NonInvertibleError(
                "no exogenous assignment is consistent with the observation"
            )
        if len(matches) > 1:
            raise NonInvertibleError(
                "several exogenous assignments are consistent with the observation"
            )
        return self._values(matches[0])

    def intervene(self, action: Mapping[str, Any]) -> "Scm":
        """The mutilated model with each action target pinned to a constant.

        A pinned variable keeps its name and domain but is assigned by a
        parentless constant equation, so its node loses all incoming edges.
        Pinning an exogenous variable removes it from the model's inputs.
        The empty action returns the model unchanged.
        """
        pins = {name: self.domain(name)[p] for name, p in self._positions(action).items()}
        if not pins:
            return self
        variables = tuple(
            VariableDecl(d.name, ENDOGENOUS, d.domain) if d.name in pins else d
            for d in self.variables
        )
        equations = [eq for eq in self.equations if eq.target not in pins]
        for decl in self.variables:
            if decl.name in pins:
                equations.append(
                    StructuralEquation(decl.name, (), {(): pins[decl.name]})
                )
        return Scm(variables, tuple(equations))

    def counterfactual(self, factual: Mapping[str, Any], action: Mapping[str, Any]) -> Assignment:
        """Abduct the factual world, apply the action, re-evaluate.

        Equal to ``self.intervene(action).evaluate(...)`` on the abducted
        exogenous values, computed as a pin overlay on this model.
        """
        completed = self.abduct(factual)
        return self._values(
            self._evaluate_exact(self._positions(completed), self._positions(action))
        )

    def graph(self) -> CausalGraph:
        edges: list[tuple[str, str]] = []
        for eq in self.equations:
            for parent in eq.parents:
                edges.append((parent, eq.target))
        return CausalGraph(tuple(d.name for d in self.variables), tuple(edges))


def _row_text(row: tuple[Fraction, ...]) -> str:
    """A row of parent values the way a model file writes its ``in``: ``[0, 1/2]``."""
    return f"[{', '.join(map(shown_value, row))}]"


# Moved to ``files``, which reads each model through this binding: the one the
# benchmark's tracer (bench/tracing.py) wraps.
__getattr__ = lazy_names(__name__, {"files": ("scm_from_dict",)})

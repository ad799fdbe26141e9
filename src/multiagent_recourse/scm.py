"""Finite-domain structural causal models.

A model is a list of variable declarations plus one exhaustive lookup-table
equation per endogenous variable.  Three operations carry the rest of the
package: forward evaluation of all endogenous variables from an exogenous
assignment, abduction (inverting the equations by exhaustive search over the
exogenous domains, with a uniqueness check), and mutilation via
do-interventions that pin variables to constants.  Composing them yields
counterfactual states: abduct the factual world, intervene, re-evaluate.

All values are exact rationals; models are treated as immutable after
construction and are safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Mapping

from .errors import (
    CycleError,
    DomainError,
    DuplicateEquationError,
    IncompleteTableError,
    MissingExogenousError,
    NonInvertibleError,
    ParseError,
    ScmValidationError,
)
from .values import as_value, load_json_exact, value_to_json

EXOGENOUS = "exogenous"
ENDOGENOUS = "endogenous"

# A (possibly partial) assignment of values to variables.
Assignment = dict[str, Fraction]


@dataclass
class VariableDecl:
    """One variable: its kind and its ordered finite domain."""

    name: str
    kind: str
    domain: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        self.domain = tuple(as_value(v) for v in self.domain)


@dataclass
class StructuralEquation:
    """Total lookup table assigning ``target`` from an ordered tuple of parent values."""

    target: str
    parents: tuple[str, ...]
    table: dict[tuple[Fraction, ...], Fraction]

    def __post_init__(self) -> None:
        self.parents = tuple(self.parents)
        self.table = {
            tuple(as_value(v) for v in key): as_value(out) for key, out in self.table.items()
        }


@dataclass
class CausalGraph:
    """Directed graph induced by the equations: one edge per parent-of-target pair."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def in_degree(self, node: str) -> int:
        return sum(1 for _, to in self.edges if to == node)


@dataclass
class Scm:
    """A validated model.  Construction runs every structural check."""

    variables: tuple[VariableDecl, ...]
    equations: tuple[StructuralEquation, ...]
    _decls: dict[str, VariableDecl] = field(init=False, repr=False, compare=False)
    _by_target: dict[str, StructuralEquation] = field(init=False, repr=False, compare=False)
    _order: tuple[str, ...] = field(init=False, repr=False, compare=False)

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
            if len(set(decl.domain)) != len(decl.domain):
                raise ScmValidationError(f"variable {decl.name!r} repeats a domain value")
            decls[decl.name] = decl
        self._decls = decls

        by_target: dict[str, StructuralEquation] = {}
        for eq in self.equations:
            decl = decls.get(eq.target)
            if decl is None:
                raise DomainError(f"equation targets undeclared variable {eq.target!r}")
            if decl.kind == EXOGENOUS:
                raise ScmValidationError(
                    f"exogenous variable {eq.target!r} cannot have an equation"
                )
            if eq.target in by_target:
                raise DuplicateEquationError(f"two equations assign {eq.target!r}")
            for parent in eq.parents:
                if parent not in decls:
                    raise DomainError(
                        f"equation for {eq.target!r} uses undeclared parent {parent!r}"
                    )
            self._validate_table(eq, decl)
            by_target[eq.target] = eq
        self._by_target = by_target

        for decl in self.variables:
            if decl.kind == ENDOGENOUS and decl.name not in by_target:
                raise ScmValidationError(f"endogenous variable {decl.name!r} has no equation")

        self._order = self._topological_order()

    def _validate_table(self, eq: StructuralEquation, decl: VariableDecl) -> None:
        expected = set(product(*(self._decls[p].domain for p in eq.parents)))
        seen = set(eq.table)
        stray = seen - expected
        if stray:
            raise DomainError(
                f"table for {eq.target!r} has a row outside the parent domains: "
                f"{sorted(stray)[0]}"
            )
        missing = expected - seen
        if missing:
            raise IncompleteTableError(
                f"table for {eq.target!r} is missing {len(missing)} row(s), "
                f"e.g. parents={sorted(missing)[0]}"
            )
        allowed = set(decl.domain)
        for key, out in eq.table.items():
            if out not in allowed:
                raise DomainError(
                    f"table for {eq.target!r} maps {key} to {out}, "
                    f"outside the declared domain"
                )

    def _topological_order(self) -> tuple[str, ...]:
        # Kahn's algorithm over the endogenous targets; exogenous parents are free.
        declared = {d.name: i for i, d in enumerate(self.variables)}
        pending = {
            target: {p for p in eq.parents if p in self._by_target}
            for target, eq in self._by_target.items()
        }
        order: list[str] = []
        ready = sorted((t for t, deps in pending.items() if not deps), key=declared.get)
        while ready:
            target = ready.pop(0)
            order.append(target)
            del pending[target]
            newly = []
            for other, deps in pending.items():
                if target in deps:
                    deps.discard(target)
                    if not deps:
                        newly.append(other)
            ready.extend(sorted(newly, key=declared.get))
        if pending:
            raise CycleError(
                "causal graph has a cycle through: " + ", ".join(sorted(pending))
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

    def check_assignment(self, assignment: Mapping[str, Any]) -> Assignment:
        """Normalize a partial assignment, rejecting unknown names and off-domain values."""
        out: Assignment = {}
        for name, raw in assignment.items():
            value = as_value(raw)
            decl = self.decl(name)
            if value not in decl.domain:
                raise DomainError(f"value {value} is outside the domain of {name!r}")
            out[name] = value
        return out

    # ------------------------------------------------------------- operations

    def evaluate(self, exogenous: Mapping[str, Any]) -> Assignment:
        """Complete world state from a full exogenous assignment, parents first.

        The input must assign exactly the exogenous variables: endogenous
        values are derived, never supplied.
        """
        given = self.check_assignment(exogenous)
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
        return self._evaluate_exact(given)

    def _evaluate_exact(self, exogenous: Assignment) -> Assignment:
        state = dict(exogenous)
        for target in self._order:
            eq = self._by_target[target]
            state[target] = eq.table[tuple(state[p] for p in eq.parents)]
        return {decl.name: state[decl.name] for decl in self.variables}

    def abduct(self, observation: Mapping[str, Any]) -> Assignment:
        """The unique complete state consistent with a partial observation.

        Searches exhaustively over the exogenous domains (observed exogenous
        variables are held fixed).  Raises NonInvertibleError when zero or
        several exogenous assignments reproduce the observation.
        """
        observed = self.check_assignment(observation)
        axes: list[tuple[Fraction, ...]] = []
        for name in self.exogenous_names:
            if name in observed:
                axes.append((observed[name],))
            else:
                axes.append(self._decls[name].domain)
        matches: list[Assignment] = []
        names = self.exogenous_names
        for combo in product(*axes):
            state = self._evaluate_exact(dict(zip(names, combo)))
            if all(state[name] == value for name, value in observed.items()):
                matches.append(state)
                if len(matches) > 1:
                    break
        if not matches:
            raise NonInvertibleError(
                "no exogenous assignment is consistent with the observation"
            )
        if len(matches) > 1:
            raise NonInvertibleError(
                "several exogenous assignments are consistent with the observation"
            )
        return matches[0]

    def intervene(self, action: Mapping[str, Any]) -> "Scm":
        """The mutilated model with each action target pinned to a constant.

        A pinned variable keeps its name and domain but is assigned by a
        parentless constant equation, so its node loses all incoming edges.
        Pinning an exogenous variable removes it from the model's inputs.
        The empty action returns the model unchanged.
        """
        pins = self.check_assignment(action)
        if not pins:
            return self
        variables = tuple(
            VariableDecl(d.name, ENDOGENOUS if d.name in pins else d.kind, d.domain)
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
        """Abduct the factual world, apply the action, re-evaluate."""
        completed = self.abduct(factual)
        mutated = self.intervene(action)
        free = {name: completed[name] for name in mutated.exogenous_names}
        return mutated.evaluate(free)

    def graph(self) -> CausalGraph:
        edges: list[tuple[str, str]] = []
        for eq in self.equations:
            for parent in eq.parents:
                edges.append((parent, eq.target))
        return CausalGraph(tuple(d.name for d in self.variables), tuple(edges))


def graph_to_dot(graph: CausalGraph) -> str:
    """Deterministic DOT text: nodes and edges sorted lexicographically."""
    lines = ["digraph causal_model {"]
    for node in sorted(graph.nodes):
        lines.append(f'    "{node}";')
    for frm, to in sorted(graph.edges):
        lines.append(f'    "{frm}" -> "{to}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ file I/O
#
# Model files are JSON:
#   {"variables": [{"name": ..., "kind": ..., "domain": [...]}, ...],
#    "equations": [{"target": ..., "parents": [...],
#                   "table": [{"in": [...], "out": ...}, ...]}, ...]}


def scm_from_dict(data: Any) -> Scm:
    if not isinstance(data, dict):
        raise ParseError("model document must be a JSON object")
    unknown = set(data) - {"variables", "equations"}
    if unknown:
        raise ParseError(f"unknown model field(s): {', '.join(sorted(unknown))}")
    variables = []
    for i, item in enumerate(_require_list(data, "variables")):
        variables.append(_variable_from_dict(item, i))
    equations = []
    for i, item in enumerate(data.get("equations", []) or []):
        equations.append(_equation_from_dict(item, i))
    return Scm(tuple(variables), tuple(equations))


def _require_list(data: dict, key: str) -> list:
    value = data.get(key)
    if not isinstance(value, list):
        raise ParseError(f"model field {key!r} must be a list")
    return value


def _variable_from_dict(item: Any, index: int) -> VariableDecl:
    if not isinstance(item, dict):
        raise ParseError(f"variables[{index}] must be an object")
    unknown = set(item) - {"name", "kind", "domain"}
    if unknown:
        raise ParseError(
            f"variables[{index}] has unknown field(s): {', '.join(sorted(unknown))}"
        )
    try:
        return VariableDecl(
            str(item["name"]), str(item["kind"]), tuple(as_value(v) for v in item["domain"])
        )
    except KeyError as exc:
        raise ParseError(f"variables[{index}] is missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ParseError(f"variables[{index}]: {exc}") from None


def _equation_from_dict(item: Any, index: int) -> StructuralEquation:
    if not isinstance(item, dict):
        raise ParseError(f"equations[{index}] must be an object")
    unknown = set(item) - {"target", "parents", "table"}
    if unknown:
        raise ParseError(
            f"equations[{index}] has unknown field(s): {', '.join(sorted(unknown))}"
        )
    try:
        target = str(item["target"])
        parents = tuple(str(p) for p in item["parents"])
        rows = item["table"]
    except KeyError as exc:
        raise ParseError(f"equations[{index}] is missing field {exc.args[0]!r}") from None
    table: dict[tuple[Fraction, ...], Fraction] = {}
    if not isinstance(rows, list):
        raise ParseError(f"equations[{index}].table must be a list of rows")
    for j, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != {"in", "out"}:
            raise ParseError(
                f"equations[{index}].table[{j}] must be an object with 'in' and 'out'"
            )
        try:
            key = tuple(as_value(v) for v in row["in"])
            out = as_value(row["out"])
        except ValueError as exc:
            raise ParseError(f"equations[{index}].table[{j}]: {exc}") from None
        if len(key) != len(parents):
            raise ParseError(
                f"equations[{index}].table[{j}] has {len(key)} inputs for "
                f"{len(parents)} parent(s)"
            )
        if key in table:
            raise ParseError(f"equations[{index}].table[{j}] repeats inputs {list(row['in'])}")
        table[key] = out
    return StructuralEquation(target, parents, table)


def scm_to_dict(scm: Scm) -> dict:
    return {
        "variables": [
            {"name": d.name, "kind": d.kind, "domain": [value_to_json(v) for v in d.domain]}
            for d in scm.variables
        ],
        "equations": [
            {
                "target": eq.target,
                "parents": list(eq.parents),
                "table": [
                    {"in": [value_to_json(v) for v in key], "out": value_to_json(out)}
                    for key, out in sorted(eq.table.items())
                ],
            }
            for eq in scm.equations
        ],
    }


def load_scm(path: str | Path) -> Scm:
    return scm_from_dict(load_json_exact(path, "model"))

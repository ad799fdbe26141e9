"""The JSON file forms: models, queries, outcomes and reports.

Only the commands that read or write these (``solve`` and ``graph``) and
library callers load this module; ``experiment`` and ``generate`` never do.
Its names are imported from here or from the package.  The query types are
imported from ``engine`` where a query is read, so ``graph`` loads no
``engine``.

A model file is read straight into the position tuples ``Scm`` runs on.  Each
variable's domain literals are read once, and its value->position map is
keyed from them (an int literal is its own key).  Each row literal is then
mapped to its domain position through a per-variable memo that starts as a
copy of that map, so no table of values is built.  A row is checked and
looked up with no iterator of its own: a one- or two-parent table unpacks the
row's inputs, and any other sums position times stride.  A table that does
not read cleanly this way is built as values, and its errors are reported
exactly as for a model built in code.

The readers look ``as_value`` up on ``values`` and the model reader on ``scm``
at each call, so a wrapper set on those modules (the benchmark's tracer, a
test's spy) sees every call made here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod
from operator import getitem, mul
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, NoReturn, Sequence

from . import scm, values
from .errors import DomainError, ParseError
from .scm import CausalGraph, Scm, StructuralEquation, VariableDecl, _literal_key
from .values import bounded_literal, read_file, shown_repr, value_to_json

if TYPE_CHECKING:
    from .engine import AgentId, AllowList, Clause, FeasibleRow, RecourseOutcome, RecourseQuery
    from .experiment import ExperimentReport, OutcomeCounts

# ------------------------------------------------------------- JSON fields
#
# Readers for the fields of decoded JSON documents.  ``where`` names the object
# ("query", "variables[2]") and ``field`` the field in it, or ``where`` alone the
# value itself; a value of the wrong kind is a ParseError naming that place.


def _json_int(text: str) -> int:
    return int(bounded_literal(text))


def decode_json(text: str, where: str, **options: Any) -> Any:
    """``json.loads(text, **options)``; a document that does not decode is a
    ParseError that ``where`` names.

    A JSON integer of more than MAX_LITERAL_DIGITS digits is refused with
    ``bounded_literal``'s message.  Only a document that fails is read again
    with each integer checked: a ``parse_int`` on every read would double the
    decoding time of a model.
    """
    try:
        try:
            return json.loads(text, **options)
        except json.JSONDecodeError:
            raise
        except ValueError:
            json.loads(text, parse_int=_json_int, **options)
            raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a number beyond the digit limit, or deep nesting
        raise ParseError(f"{where}: {exc}") from exc


def load_json_exact(path: str | Path, noun: str) -> Any:
    """Read a JSON file, float literals as exact Fractions; ``noun`` names it in errors."""
    path = Path(path)
    return decode_json(read_file(path, noun), str(path), parse_float=values.as_value)


def _place(where: str, field: str | None) -> str:
    return where if field is None else f"{where} field {field!r}"


def _reject(raw: Any, where: str, field: str | None, expected: str) -> NoReturn:
    raise ParseError(f"{_place(where, field)} must be {expected}, got {shown_repr(raw)}")


def read_object(
    raw: Any,
    where: str,
    field: str | None = None,
    *,
    allowed: AbstractSet[str] | None = None,
    required: AbstractSet[str] = frozenset(),
    expected: str = "an object",
) -> dict:
    """A JSON object with every ``required`` field and, given ``allowed``, no other."""
    if not isinstance(raw, dict):
        _reject(raw, where, field, expected)
    keys = raw.keys()
    if keys == required:  # the usual case for an object whose fields are all required
        return raw
    if allowed is not None and not keys <= allowed:
        unknown = ", ".join(sorted(map(str, keys - allowed)))
        raise ParseError(f"{_place(where, field)} has unknown field(s): {unknown}")
    if not keys >= required:
        raise ParseError(f"{_place(where, field)} is missing field {min(required - keys)!r}")
    return raw


def _reader(kind: type, expected: str) -> Callable[..., Any]:
    def read(raw: Any, where: str, field: str | None = None) -> Any:
        return raw if type(raw) is kind else _reject(raw, where, field, expected)

    return read


read_list = _reader(list, "a list")
read_str = _reader(str, "a string")
read_bool = _reader(bool, "true or false")
read_int = _reader(int, "an integer")  # exact type: a bool is not an integer


def read_value(raw: Any, where: str, field: str | None = None) -> Fraction:
    """An exact value, read by ``as_value``; a non-number is a ParseError naming the place."""
    try:
        return values.as_value(raw)
    except ValueError as exc:
        raise ParseError(f"{_place(where, field)}: {exc}") from None


def read_values(raw: Any, where: str, field: str | None = None) -> tuple:
    """A JSON list of exact values, each read once by ``as_value``; the first
    non-number is read again by ``read_value`` for its ParseError."""
    items = read_list(raw, where, field)
    try:
        return tuple(map(values.as_value, items))
    except ValueError:
        for item in items:
            read_value(item, where, field)
        raise


def read_agent(raw: Any, where: str, field: str | None = None) -> int | str:
    """A JSON integer, or a string; ``"-2"`` and ``-2`` name the same agent."""
    if isinstance(raw, str):
        return int(read_value(raw, where, field)) if raw.removeprefix("-").isdecimal() else raw
    return raw if type(raw) is int else _reject(raw, where, field, "an integer or a string")


# -------------------------------------------------------------------- models
#
# Model files are JSON:
#   {"variables": [{"name": ..., "kind": ..., "domain": [...]}, ...],
#    "equations": [{"target": ..., "parents": [...],
#                   "table": [{"in": [...], "out": ...}, ...]}, ...]}


_VARIABLE_FIELDS = frozenset({"name", "kind", "domain"})
_EQUATION_FIELDS = frozenset({"target", "parents", "table"})
_ROW_FIELDS = frozenset({"in", "out"})
# The types of JSON literals ``as_value`` reads as numbers.
_LITERAL_TYPES = frozenset({int, str, Fraction, float})


def scm_from_dict(data: Any) -> Scm:
    """The model a decoded JSON document describes.

    The variables are read first.  Each table is then read straight into the
    positions ``Scm`` runs on (``_table_positions``); only a table that does
    not read cleanly that way is built as values, which is where its errors
    are found and reported.
    """
    data = read_object(data, "model", allowed={"variables", "equations"}, required={"variables"})
    raw_variables = read_list(data["variables"], "model", "variables")
    equations = read_list(data.get("equations", []), "model", "equations")
    variables = tuple(_variable_from_dict(item, i) for i, item in enumerate(raw_variables))
    memos = {
        decl.name: _PositionMemo(decl) for decl in variables if len(decl._index) == len(decl.domain)
    }
    return Scm(
        variables,
        tuple(_equation_from_dict(item, i, memos) for i, item in enumerate(equations)),
    )


class _PositionMemo(dict):
    """Raw JSON literal -> its position in one variable's domain.

    Starts as a copy of the declaration's ``_index``, so an int or ``Fraction``
    literal is found as it is; any other literal is read by ``as_value`` and
    looked up on first use.  A literal that is not a number, or whose value is
    outside the domain, raises KeyError (ValueError for a number literal that
    is too long).  Only for a domain that repeats no value, so that equal
    values always share a position.
    """

    __slots__ = ("domain", "_index")

    def __init__(self, decl: VariableDecl):
        super().__init__(decl._index)
        self.domain = decl.domain
        self._index = decl._index

    def __missing__(self, raw: Any) -> int:
        position = self[raw] = self._index[_literal_key(raw)]
        return position


def _variable_from_dict(item: Any, index: int) -> VariableDecl:
    where = f"variables[{index}]"
    item = read_object(item, where, allowed=_VARIABLE_FIELDS, required=_VARIABLE_FIELDS)
    name = read_str(item["name"], where, "name")
    kind = read_str(item["kind"], where, "kind")
    literals = read_list(item["domain"], where, "domain")
    try:
        return VariableDecl(name, kind, literals)
    except ValueError:
        read_values(literals, where, "domain")  # the first non-number's ParseError
        raise


def _equation_from_dict(
    item: Any, index: int, memos: dict[str, _PositionMemo]
) -> StructuralEquation:
    where = f"equations[{index}]"
    item = read_object(item, where, allowed=_EQUATION_FIELDS, required=_EQUATION_FIELDS)
    target = read_str(item["target"], where, "target")
    parents = tuple(read_list(item["parents"], where, "parents"))
    for k, parent in enumerate(parents):
        if type(parent) is not str:  # its place is written only for the error
            read_str(parent, f"{where}.parents[{k}]")
    rows = read_list(item["table"], where, "table")
    positions = _table_positions(rows, parents, target, memos)
    if positions is not None:
        return StructuralEquation._from_positions(target, parents, *positions)
    return StructuralEquation(target, parents, _read_table(rows, where, len(parents)))


def _table_positions(
    rows: list, parents: tuple[str, ...], target: str, memos: dict[str, _PositionMemo]
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]] | None:
    """The domains read against and the target's position for each parent row
    in ``product`` order, read straight from the JSON rows.

    None unless the rows are well formed, hold only numbers, use only
    declared variables whose domains repeat no value, and give every parent
    row exactly once with an output in the target's domain.  Such a table has
    no error that ``_read_table`` or ``Scm`` would report.
    """
    try:
        parent_memos = [memos[name] for name in parents]
        out_memo = memos[target]
    except KeyError:
        return None
    sizes = [len(memo.domain) for memo in parent_memos]
    if len(rows) != prod(sizes):
        return None
    arity = len(parents)
    # A row's number in the mixed radix: the sum of position times stride.
    strides = [prod(sizes[k + 1 :]) for k in range(arity)]
    first, second = (*parent_memos, None, None)[:2]  # for the unrolled bodies
    outputs = [-1] * len(rows)
    # Only literals of a number type are looked up, since a memo hit needs only
    # equality (True == 1) and a miss is read by as_value.  One and two parents
    # (every table of the benchmark's chain models and of ``pd_scm``'s file
    # form) unpack the row's inputs; a wrong arity fails to unpack, with a
    # ValueError.
    try:
        for row in rows:
            if type(row) is not dict or len(row) != 2:
                return None
            ins, out = row["in"], row["out"]  # with two fields, a KeyError unless these
            if type(ins) is not list or type(out) not in _LITERAL_TYPES:
                return None
            if arity == 2:
                a, b = ins
                if type(a) not in _LITERAL_TYPES or type(b) not in _LITERAL_TYPES:
                    return None
                outputs[first[a] * sizes[1] + second[b]] = out_memo[out]
            elif arity == 1:
                (a,) = ins
                if type(a) not in _LITERAL_TYPES:
                    return None
                outputs[first[a]] = out_memo[out]
            else:
                if len(ins) != arity or not _LITERAL_TYPES.issuperset(map(type, ins)):
                    return None
                outputs[sum(map(mul, map(getitem, parent_memos, ins), strides))] = out_memo[out]
    except (KeyError, ValueError):
        return None
    if -1 in outputs:  # a repeated row leaves another one out
        return None
    return (*(memo.domain for memo in parent_memos), out_memo.domain), tuple(outputs)


def _read_table(rows: list, where: str, arity: int) -> dict[tuple[Fraction, ...], Fraction]:
    """The rows as values, each checked in turn; a malformed row is a ParseError."""
    table: dict[tuple[Fraction, ...], Fraction] = {}
    for j, row in enumerate(rows):
        at = f"{where}.table[{j}]"
        read_object(row, at, allowed=_ROW_FIELDS, required=_ROW_FIELDS)
        key = read_values(row["in"], at, "in")
        out = read_value(row["out"], at, "out")
        if len(key) != arity:
            raise ParseError(f"{at} has {len(key)} inputs for {arity} parent(s)")
        size = len(table)
        table[key] = out
        if len(table) == size:
            raise ParseError(f"{at} repeats inputs {row['in']}")
    return table


def scm_to_dict(scm: Scm) -> dict:  # the parameter shadows the module, which this does not use
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
    return scm.scm_from_dict(load_json_exact(path, "model"))


def graph_to_dot(graph: CausalGraph) -> str:
    """Deterministic DOT text: nodes and edges sorted lexicographically."""
    lines = ["digraph causal_model {"]
    for node in sorted(graph.nodes):
        lines.append(f'    "{node}";')
    for frm, to in sorted(graph.edges):
        lines.append(f'    "{frm}" -> "{to}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- queries
#
# Query files are JSON:
#   {"scm": {...} | "scm_file": "path.json",
#    "principal": 1, "agents": {"1": "h1", "2": "h2"},
#    "factual": {"x1": 0, "x2": 1},
#    "feasible": [{"x1": 1}, {}],
#    "constraints": [{"kind": "principal_improvement", "strict": true}, ...],
#    "cost": {"kind": "composite", "weights": {...}},
#    "plausible": [{"x1": 0, "x2": 0}, ...],      # optional allow-list
#    "exclude_identity": false, "solver": "structural"}

SOLVER_STRUCTURAL = "structural"
SOLVER_BASELINE = "baseline"

_QUERY_FIELDS = {
    "scm",
    "scm_file",
    "principal",
    "agents",
    "factual",
    "feasible",
    "constraints",
    "cost",
    "plausible",
    "exclude_identity",
    "solver",
}


def _assignment(raw: Any, where: str, field: str | None = None) -> dict[str, Fraction]:
    """A JSON object of exact values; a bad value is named by the object's place."""
    items = read_object(raw, where, field)
    as_value = values.as_value
    try:
        return {name: as_value(v) for name, v in items.items()}
    except ValueError:
        read_values([*items.values()], where, field)  # the first non-number's ParseError
        raise


def _clause_from_dict(item: Any, index: int) -> Clause:
    from .engine import _CLAUSE_KINDS, Threshold

    where = f"constraints[{index}]"
    item = read_object(item, where, allowed={"kind", "strict", "agent", "t"}, required={"kind"})
    kind = read_str(item["kind"], where, "kind")
    if kind not in _CLAUSE_KINDS:
        kinds = ", ".join(sorted(_CLAUSE_KINDS))
        raise ParseError(f"{where} has unknown kind {kind!r}; expected one of {kinds}")
    cls = _CLAUSE_KINDS[kind]
    strict = read_bool(item.get("strict", cls is not Threshold), where, "strict")
    if cls is Threshold:
        read_object(item, where, required={"agent", "t"})
        agent = read_agent(item["agent"], where, "agent")
        try:
            return Threshold(agent, item["t"], strict)
        except ValueError:
            read_value(item["t"], where, "t")  # its ParseError
            raise
    return cls(strict) if cls._fields else cls()


def _allowlist_predicate(entries: list, model: Scm) -> AllowList:
    """The plausibility predicate of an allow-list (``engine.AllowList``): a
    state passes if it agrees with some entry on every variable the entry
    names.  An entry that names a variable ``model`` does not declare, or a
    value outside its domain, could admit no state, and is a DomainError that
    names the entry."""
    from .engine import AllowList

    normalized = []
    for j, entry in enumerate(entries):
        where = f"plausible[{j}]"
        allowed = _assignment(read_object(entry, where), "query", "plausible")
        try:
            model._positions(allowed)
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from None
        normalized.append(allowed)
    return AllowList._exact(normalized)


# The types of action literals read straight to positions.  A float is read by
# its decimal literal, which a memo hit on its binary value would not do.
_ACTION_LITERAL_TYPES = frozenset({int, str, Fraction})


def _action_positions(raw: list, model: Scm) -> tuple[list, list] | None:
    """The actions of a structural query, each as values taken from the
    domains and as positions, every literal looked up through one
    ``_PositionMemo`` per variable.

    None if an action is not an object, names a variable ``model`` does not
    declare, or holds a literal that is not a number (a bool is not one) in
    its variable's domain.  ``_assignment`` then reads the list, for its
    ParseErrors, and ``_rank`` maps it, for its DomainErrors.  (A model's
    domains repeat no value, which a memo needs.)
    """
    memos: dict[str, _PositionMemo] = {}
    actions, pins = [], []
    try:
        for item in raw:
            if type(item) is not dict:
                return None
            action, positions = {}, {}
            for name, literal in item.items():
                if type(literal) not in _ACTION_LITERAL_TYPES:
                    return None
                memo = memos.get(name)
                if memo is None:
                    memo = memos[name] = _PositionMemo(model._decls[name])
                position = positions[name] = memo[literal]
                action[name] = memo.domain[position]
            actions.append(action)
            pins.append(positions)
    except (KeyError, ValueError):
        return None
    return actions, pins


def query_from_dict(data: Any, base_dir: str | Path = ".") -> tuple[RecourseQuery, str]:
    """Build a query from its JSON form; returns (query, solver mode)."""
    from .engine import COST_COMPOSITE, CostModel, RecourseQuery

    required = {"principal", "agents", "factual", "feasible"}
    data = read_object(data, "query", allowed=_QUERY_FIELDS, required=required)
    if ("scm" in data) == ("scm_file" in data):
        raise ParseError("query must contain exactly one of 'scm' or 'scm_file'")
    if "scm" in data:
        model = scm.scm_from_dict(data["scm"])
    else:
        model = load_scm(Path(base_dir) / read_str(data["scm_file"], "query", "scm_file"))
    agents: dict[AgentId, str] = {}
    keys: dict[AgentId, str] = {}  # agent -> the key that named it
    for key, variable in read_object(data["agents"], "query", "agents").items():
        agent = read_agent(key, "query", "agents")
        if agent in keys:
            raise ParseError(
                f"query field 'agents' names agent {agent!r} twice: {keys[agent]!r} and {key!r}"
            )
        keys[agent] = key
        agents[agent] = read_str(variable, "agents", key)
    constraints = [
        _clause_from_dict(item, i)
        for i, item in enumerate(read_list(data.get("constraints", []), "query", "constraints"))
    ]
    cost_data = read_object(data.get("cost", {}), "query", "cost", allowed={"kind", "weights"})
    weights = cost_data.get("weights")
    # Read here, not in CostModel, so that a bad weight comes before an unknown kind.
    cost = CostModel(
        read_str(cost_data.get("kind", COST_COMPOSITE), "cost", "kind"),
        None if weights is None else _assignment(weights, "query", "cost.weights"),
    )
    plausible = None
    if "plausible" in data:
        plausible = _allowlist_predicate(read_list(data["plausible"], "query", "plausible"), model)
    solver = read_str(data.get("solver", SOLVER_STRUCTURAL), "query", "solver")
    if solver not in (SOLVER_STRUCTURAL, SOLVER_BASELINE):
        raise ParseError(f"query field 'solver' names unknown solver {solver!r}")
    principal = read_agent(data["principal"], "query", "principal")
    factual = _assignment(data["factual"], "query", "factual")
    raw = read_list(data["feasible"], "query", "feasible")
    # A structural query's actions are read straight to positions, which
    # ``_rank`` takes while the query's actions still equal a copy of them.
    loaded = _action_positions(raw, model) if solver == SOLVER_STRUCTURAL else None
    if loaded is None:
        feasible = [_assignment(action, f"feasible[{j}]") for j, action in enumerate(raw)]
    else:
        feasible = [dict(action) for action in loaded[0]]
    exclude_identity = read_bool(data.get("exclude_identity", False), "query", "exclude_identity")
    # Every value is read exactly once here, so the query takes them as they are.
    query = RecourseQuery._exact(
        model, principal, agents, factual, feasible, constraints, cost, plausible, exclude_identity
    )
    query._loaded = None if loaded is None else (model, *loaded)
    return query, solver


def load_query(path: str | Path) -> tuple[RecourseQuery, str]:
    path = Path(path)
    return query_from_dict(load_json_exact(path, "query"), path.parent)


def outcome_to_dict(outcome: RecourseOutcome) -> dict:
    return {
        "found": True,
        "action": {name: value_to_json(outcome.action[name]) for name in sorted(outcome.action)},
        "counterfactual": {n: value_to_json(v) for n, v in outcome.counterfactual.items()},
        "cost": value_to_json(outcome.cost),
        "principal": outcome.principal,
        "per_agent": {
            str(agent): {
                "before": value_to_json(d.before),
                "after": value_to_json(d.after),
                "delta": value_to_json(d.delta),
            }
            for agent, d in outcome.per_agent.items()
        },
        "flags": {
            "principal_improved": outcome.flags.principal_improved,
            "pareto_violated": outcome.flags.pareto_violated,
            "welfare_delta": value_to_json(outcome.flags.welfare_delta),
        },
    }


def rows_to_json(rows: Sequence[FeasibleRow]) -> str:
    return json.dumps([row.to_dict() for row in rows], indent=2) + "\n"


# ------------------------------------------------------------------- reports
#
# The JSON and CSV forms ``experiment.render_report`` writes, read back.
# ``experiment`` and ``csv`` are imported when a report is read, so that
# ``solve`` and ``graph`` load neither.

_REPORT_FIELDS = frozenset({"overall", "per_matrix"})


def _counts_from_dict(raw: Any, scope: str) -> OutcomeCounts:
    from .experiment import _COUNT_FIELDS, OutcomeCounts

    where = f"report JSON counts {scope!r}"
    fields = frozenset(_COUNT_FIELDS)
    data = read_object(raw, where, allowed=fields, required=fields, expected="objects of integers")
    counts = {name: read_int(data[name], where, name) for name in _COUNT_FIELDS}
    return _consistent(OutcomeCounts(**counts), where)


def _consistent(counts: OutcomeCounts, where: str) -> OutcomeCounts:
    """``counts`` unless one is negative or exceeds its
    bound; ``where`` names the scope.  Recommendations answer queries, and each
    count after them counts some of the recommendations."""
    fields = counts._fields
    counted = dict(zip(fields, counts._key()))
    for name, value in counted.items():
        if value < 0:
            raise ParseError(f"{where} field {name!r} is negative: {value}")
    for name in fields[2:]:
        bound = "queries" if name == "recommendations" else "recommendations"
        if counted[name] > counted[bound]:
            raise ParseError(
                f"{where} field {name!r} ({counted[name]}) exceeds {bound!r} ({counted[bound]})"
            )
    return counts


def report_from_json(text: str) -> ExperimentReport:
    from .experiment import ExperimentReport

    data = decode_json(text, "report JSON")
    data = read_object(data, "report JSON", allowed=_REPORT_FIELDS, required=_REPORT_FIELDS)
    per_matrix = read_object(data["per_matrix"], "report JSON", "per_matrix")
    if "overall" in per_matrix:
        raise ParseError(
            "report JSON field 'per_matrix' cannot name a matrix 'overall': reports use it for the totals"
        )
    return ExperimentReport(
        overall=_counts_from_dict(data["overall"], "overall"),
        per_matrix={mid: _counts_from_dict(c, mid) for mid, c in per_matrix.items()},
    )


def report_from_csv(text: str) -> ExperimentReport:
    import csv
    import io

    from .experiment import _COUNT_FIELDS, ExperimentReport, OutcomeCounts

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        if next(reader, None) != ["scope"] + _COUNT_FIELDS:
            raise ParseError(
                f"report CSV must start with the header 'scope,{','.join(_COUNT_FIELDS)}'"
            )
        scopes: dict[str, OutcomeCounts] = {}
        for row in reader:
            if not row:
                continue
            try:
                counts = OutcomeCounts(**dict(zip(_COUNT_FIELDS, map(int, row[1:]), strict=True)))
            except ValueError:
                raise ParseError(
                    f"line {reader.line_num}: expected {len(_COUNT_FIELDS)} integer counts"
                ) from None
            _consistent(counts, f"report CSV counts {row[0]!r} (line {reader.line_num})")
            if row[0] in scopes:
                raise ParseError(
                    f"line {reader.line_num}: report CSV gives scope {row[0]!r} more than once"
                )
            scopes[row[0]] = counts
    except csv.Error as exc:  # text the CSV reader cannot split, such as an oversized field
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if "overall" not in scopes:
        raise ParseError("report CSV has no 'overall' row")
    return ExperimentReport(overall=scopes.pop("overall"), per_matrix=scopes)

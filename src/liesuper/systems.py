"""System specifications: the named ODE systems the CLI can integrate.

A spec is a JSON object with a ``kind`` and all of that kind's parameters.
``SYSTEM_KINDS`` is the one description of each kind: its parameters with
their checkers, its state dimension and its builder.  The suite's rules
and drift checks name one of these kinds and take exactly its parameters.

kind                 parameters   system                                      dim
linear_homogeneous   order, b     x^(order) = -sum_l b_l(t) x^(l), companion  order
linear_affine        a, b         x' = a(t) x + b(t)                          1
bernoulli            a, b, n      x' = a(t) x + b(t) x^n                      1
riccati              b0, b1       y' = -b0(t) - b1(t) y - y^2                 1
oscillator           omega        x' = p, p' = -omega^2(t) x                  2
pinney               omega, c     x' = p, p' = -omega^2(t) x + c/x^3          2
hierarchy_member     order, b     the order-`order` member, first-order form  order - 1
custom_td            dim, terms   sum of coeff(t) * field                     dim

a, b0, b1, omega  time-function string (grammar in ``parsing``); so is b for
                  linear_affine and bernoulli, while the two kinds with an
                  order take a list of `order` of them
order             integer >= 2
n                 integer >= 0 other than 1 (1 is the linear case)
c                 finite number
dim               integer >= 1
terms             non-empty list of {coeff: time-function string,
                  field: `dim` polynomial strings in x0..x{dim-1}}

JSON ``true`` and ``false`` are neither integers nor numbers here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import Poly
from .hierarchy import LinearODESpec, companion_linear_system, member_td_system
from .parsing import ParseError, TimeFunction, TimePower, parse_poly, parse_timefn
from .vectorfield import AnyRHS, GenericRHS, PolyVectorField, TDVectorField

# (value, path, params, errors) -> the normalized value, or None after
# appending a "path: message" error; params holds the already checked
# parameters of the same document
Checker = Callable[[object, str, dict, list], object]


class SpecError(ValueError):
    """A system specification failed validation; message names the path."""


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def is_number(value) -> bool:
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def checker(ok: Callable[[object], bool], message: str) -> Checker:
    """Checker passing the values for which ``ok`` holds unchanged."""

    def check(value, path: str, params: dict, errors: list[str]):
        if ok(value):
            return value
        errors.append(f"{path}: {message}")
        return None

    return check


def check_integer(minimum: int | None) -> Checker:
    bound = "" if minimum is None else f" >= {minimum}"
    return checker(lambda v: _is_integer(v) and (minimum is None or v >= minimum), f"expected an integer{bound}")


def check_number(value, path: str, params: dict, errors: list[str]):
    if is_number(value):
        return float(value)
    errors.append(f"{path}: expected a finite number")
    return None


# x^n must stay a polynomial field
_check_exponent = checker(lambda v: _is_integer(v) and v >= 0 and v != 1, "expected an integer >= 0 other than 1")


def _check_parses(parse, what: str, value, path: str, errors: list[str]):
    if not isinstance(value, str):
        errors.append(f"{path}: expected a {what} string")
        return None
    try:
        parse(value)
    except (ParseError, RecursionError) as exc:  # the parsers recurse per nesting level
        errors.append(f"{path}: {exc}")
        return None
    return value


def _check_timefn(value, path: str, params: dict, errors: list[str]):
    return _check_parses(parse_timefn, "time-function", value, path, errors)


def _list_of(what: str, check: Checker, length: str | None = None) -> Checker:
    """Checker of a list whose items pass ``check``: ``params[length]`` of
    them, or one or more when ``length`` is None."""

    def check_list(value, path: str, params: dict, errors: list[str]):
        if length is not None and length not in params:
            return None  # the length parameter failed its own check
        n = params.get(length)
        if not isinstance(value, list) or (len(value) != n if length else not value):
            errors.append(f"{path}: expected {n if length else 'a non-empty list of'} {what}")
            return None
        count = len(errors)
        checked = [check(item, f"{path}[{i}]", params, errors) for i, item in enumerate(value)]
        return checked if len(errors) == count else None

    return check_list


def _check_poly(value, path: str, params: dict, errors: list[str]):
    return _check_parses(lambda src: parse_poly(src, params["dim"]), "polynomial", value, path, errors)


_check_timefns = _list_of("time-function strings", _check_timefn, "order")
_check_field = _list_of("component strings", _check_poly, "dim")
_check_fields = _list_of("fields", _check_field)
_TERM_KEYS = (("coeff", _check_timefn), ("field", _check_field))


def _check_term(term, path: str, params: dict, errors: list[str]):
    checked = check_keys(_TERM_KEYS, term, path, errors, dict(params))
    return {key: checked.get(key) for key, _ in _TERM_KEYS}


_check_terms = _list_of("terms", _check_term)


def check_keys(schema: Sequence[tuple[str, Checker]], doc, path: str, errors: list[str], params=None) -> dict:
    """Check every ``(key, checker)`` of ``schema`` on ``doc``, all keys
    required and other keys ignored; returns ``params`` (a new dict by
    default) with the values that passed added."""
    params = {} if params is None else params
    if not isinstance(doc, dict):
        errors.append(f"{path}: expected an object")
        return params
    for key, check in schema:
        if key not in doc:
            errors.append(f"{path}.{key}: missing required key")
            continue
        value = check(doc[key], f"{path}.{key}", params, errors)
        if value is not None:
            params[key] = value
    return params


def lookup(table: dict, value, path: str, errors: list[str]):
    """``table[value]`` for a string key of ``table``; otherwise None after
    appending an error that lists the keys."""
    if isinstance(value, str) and value in table:
        return table[value]
    errors.append(f"{path}: unknown value {value!r}, expected one of {', '.join(table)}")
    return None


# a generators file, and a suite's explicit closure generators
GENERATOR_KEYS = (("dim", check_integer(1)), ("fields", _check_fields))


def _poly_field(components: Sequence[str], dim: int) -> PolyVectorField:
    return PolyVectorField([parse_poly(src, dim) for src in components])


def generator_fields(doc: dict) -> list[PolyVectorField]:
    """The fields of a ``{dim, fields}`` document checked with GENERATOR_KEYS."""
    return [_poly_field(comps, doc["dim"]) for comps in doc["fields"]]


def parse_generators(doc, path: str = "generators") -> list[PolyVectorField]:
    """Validate a ``{dim, fields}`` generators document and return its fields."""
    errors: list[str] = []
    checked = check_keys(GENERATOR_KEYS, doc, path, errors)
    if errors:
        raise SpecError("; ".join(errors))
    return generator_fields(checked)


# ---------------------------------------------------------------------------
# builders and the kind table
# ---------------------------------------------------------------------------

def _bernoulli_system(a: str, b: str, n: int) -> TDVectorField:
    """x' = a(t) x + b(t) x^n on R; n = 0 is the linear affine equation.
    The first term alone is the homogeneous equation x' = a(t) x."""
    x = Poly.variable(1, 0)
    return TDVectorField([(parse_timefn(a), PolyVectorField([x])), (parse_timefn(b), PolyVectorField([x**n]))])


def oscillator_system(omega: TimeFunction) -> TDVectorField:
    """x' = p, p' = -omega^2(t) x on R^2, in decomposed form."""
    drift = PolyVectorField([Poly.variable(2, 1), Poly.zero(2)])
    pull = PolyVectorField([Poly.zero(2), -Poly.variable(2, 0)])
    return TDVectorField([(TimeFunction.constant(1), drift), (TimePower(omega, 2), pull)])


def pinney_system(omega: TimeFunction, c: float) -> GenericRHS:
    """x' = p, p' = -omega^2(t) x + c/x^3 on the half-plane x > 0."""
    cval = float(c)

    def fn(t: float, state: Sequence[float]) -> list[float]:
        x, p = state
        return [p, -omega.eval(t) ** 2 * x + cval / x**3]

    return GenericRHS(2, fn, label="pinney")


@dataclass(frozen=True)
class SystemKind:
    """One spec kind: its parameters with their checkers, and its state
    dimension and builder, each a function of the checked parameters."""

    params: tuple[tuple[str, Checker], ...]
    dimension: Callable[[dict], int]
    build: Callable[[dict], AnyRHS]


_ORDER_B = (("order", check_integer(2)), ("b", _check_timefns))

SYSTEM_KINDS: dict[str, SystemKind] = {
    "linear_homogeneous": SystemKind(
        _ORDER_B,
        lambda p: p["order"],
        lambda p: companion_linear_system(LinearODESpec(p["order"], tuple(map(parse_timefn, p["b"])))),
    ),
    "linear_affine": SystemKind(
        (("a", _check_timefn), ("b", _check_timefn)), lambda p: 1, lambda p: _bernoulli_system(p["a"], p["b"], 0)
    ),
    "bernoulli": SystemKind(
        (("a", _check_timefn), ("b", _check_timefn), ("n", _check_exponent)),
        lambda p: 1,
        lambda p: _bernoulli_system(p["a"], p["b"], p["n"]),
    ),
    "riccati": SystemKind(
        (("b0", _check_timefn), ("b1", _check_timefn)),
        lambda p: 1,
        lambda p: member_td_system(2, [parse_timefn(p["b0"]), parse_timefn(p["b1"])]),
    ),
    "oscillator": SystemKind(
        (("omega", _check_timefn),), lambda p: 2, lambda p: oscillator_system(parse_timefn(p["omega"]))
    ),
    "pinney": SystemKind(
        (("omega", _check_timefn), ("c", check_number)),
        lambda p: 2,
        lambda p: pinney_system(parse_timefn(p["omega"]), p["c"]),
    ),
    "hierarchy_member": SystemKind(
        _ORDER_B, lambda p: p["order"] - 1, lambda p: member_td_system(p["order"], list(map(parse_timefn, p["b"])))
    ),
    "custom_td": SystemKind(
        (("dim", check_integer(1)), ("terms", _check_terms)),
        lambda p: p["dim"],
        lambda p: TDVectorField(
            [(parse_timefn(term["coeff"]), _poly_field(term["field"], p["dim"])) for term in p["terms"]]
        ),
    ),
}


@dataclass(frozen=True)
class SystemSpec:
    kind: str
    params: dict

    @property
    def dimension(self) -> int:
        return SYSTEM_KINDS[self.kind].dimension(self.params)


def parse_system_spec(doc: dict, path: str = "system") -> SystemSpec:
    """Validate a raw document and return the normalized spec."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: expected an object")
    kind = lookup(SYSTEM_KINDS, doc.get("kind"), f"{path}.kind", errors)
    params = check_keys(kind.params, doc, path, errors) if kind is not None else {}
    if errors:
        raise SpecError("; ".join(errors))
    return SystemSpec(doc["kind"], params)


def build_rhs(spec: SystemSpec) -> AnyRHS:
    """Instantiate the right-hand side described by a spec."""
    return SYSTEM_KINDS[spec.kind].build(spec.params)


def spec_to_doc(spec: SystemSpec) -> dict:
    """Normalized JSON document; parse_system_spec round-trips it."""
    return {"kind": spec.kind, **{key: spec.params[key] for key, _ in SYSTEM_KINDS[spec.kind].params}}

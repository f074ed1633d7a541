"""Finite groups of the catalog: construction terms, Cayley tables, element labels.

Groups are handled as explicit 0-based Cayley tables (orders here are <= 126,
so exhaustive validation is cheap).  Elements of constructed groups carry
structured labels: plain integers for cyclic groups, tuples for products and
semidirect products, matching the tuple notation of the catalog data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidAction,
    LabelNotInGroup,
    OrderMismatch,
    ParseError,
    ValidationError,
)


class _Infinity:
    """Label of the fixed point of 1-rotational designs (never a group element)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "∞"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()

#: int, tuple of labels, or the infinity sentinel
ElementLabel = Union[int, tuple, _Infinity]

#: largest group order accepted; a table is checked against it before it exists
MAX_ORDER = 126


def parse_element_label(text: str) -> ElementLabel:
    """Parse ``"7"``, ``"(2, 13)"``, ``"((0, 1), 3)"``, ``"inf"`` or ``"∞"``."""
    tokens = _tokenize_label(text)
    label, pos = _parse_label_tokens(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"trailing input in label: {text!r}")
    return label


def format_element_label(label: ElementLabel, compact: bool = False) -> str:
    """Inverse of :func:`parse_element_label` (``compact`` drops inner spaces)."""
    if label is INF:
        return "inf" if compact else "∞"
    if isinstance(label, tuple):
        sep = "," if compact else ", "
        return "(" + sep.join(format_element_label(x, compact) for x in label) + ")"
    if isinstance(label, (int, np.integer)):
        return str(int(label))
    raise ParseError(f"not an element label: {label!r}")


def label_from_json(value) -> ElementLabel:
    """Decode a catalog JSON label (int, nested array, or "inf")."""
    if value == "inf":
        return INF
    if isinstance(value, list):
        return tuple(label_from_json(v) for v in value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"bad JSON label: {value!r}")
    return value


def label_to_json(label: ElementLabel):
    if label is INF:
        return "inf"
    if isinstance(label, tuple):
        return [label_to_json(x) for x in label]
    return int(label)


def _tokenize_label(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "(),":
            tokens.append(c)
            i += 1
        elif c == "∞":
            tokens.append(INF)
            i += 1
        elif text[i : i + 3].lower() == "inf":
            tokens.append(INF)
            i += 3
        elif c.isdigit() or c == "-":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        else:
            raise ParseError(f"bad character {c!r} in label {text!r}")
    if not tokens:
        raise ParseError("empty label")
    return tokens


def _parse_label_tokens(tokens: list, pos: int):
    tok = tokens[pos] if pos < len(tokens) else None
    if tok is INF or isinstance(tok, int):
        return tok, pos + 1
    if tok == "(":
        items = []
        pos += 1
        while True:
            item, pos = _parse_label_tokens(tokens, pos)
            items.append(item)
            if pos >= len(tokens):
                raise ParseError("unterminated tuple label")
            if tokens[pos] == ",":
                pos += 1
                continue
            if tokens[pos] == ")":
                return tuple(items), pos + 1
            raise ParseError("malformed tuple label")
    raise ParseError(f"unexpected token {tok!r}")


# ---------------------------------------------------------------------------
# Group construction terms


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Product:
    left: "GroupSpec"
    right: "GroupSpec"


@dataclass(frozen=True)
class Semidirect:
    normal: "GroupSpec"
    actor: "GroupSpec"  # must be Cyclic
    #: pairs (generator label of normal, image label under the actor generator)
    action: tuple


@dataclass(frozen=True)
class External:
    path: str


GroupSpec = Union[Cyclic, Product, Semidirect, External]


def spec_from_json(obj, base_dir: Path | None = None) -> GroupSpec:
    """Decode the catalog JSON group grammar; any malformed input is a ParseError."""
    try:
        return _spec_from_json(obj, base_dir)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"bad group spec {obj!r}: {exc!r}") from None


def _spec_from_json(obj, base_dir: Path | None) -> GroupSpec:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParseError(f"bad group spec: {obj!r}")
    (kind, val), = obj.items()
    if kind == "cyclic":
        return Cyclic(int(val))
    if kind == "product":
        left, right = val
        return Product(spec_from_json(left, base_dir), spec_from_json(right, base_dir))
    if kind == "semidirect":
        action = tuple(
            (label_from_json(g), label_from_json(im)) for g, im in val["action"]
        )
        return Semidirect(
            spec_from_json(val["normal"], base_dir),
            spec_from_json(val["actor"], base_dir),
            action,
        )
    if kind == "external":
        path = str(val)
        if base_dir is not None and not Path(path).is_absolute():
            path = str(base_dir / path)
        return External(path)
    raise ParseError(f"unknown group spec kind {kind!r}")


def spec_to_json(spec: GroupSpec):
    if isinstance(spec, Cyclic):
        return {"cyclic": spec.n}
    if isinstance(spec, Product):
        return {"product": [spec_to_json(spec.left), spec_to_json(spec.right)]}
    if isinstance(spec, Semidirect):
        return {"semidirect": {
            "normal": spec_to_json(spec.normal),
            "actor": spec_to_json(spec.actor),
            "action": [[label_to_json(g), label_to_json(im)] for g, im in spec.action],
        }}
    if isinstance(spec, External):
        return {"external": spec.path}
    raise ParseError(f"not a group spec: {spec!r}")


# ---------------------------------------------------------------------------
# Cayley groups


@dataclass
class CayleyGroup:
    """A finite group as a validated 0-based multiplication table."""

    order: int
    table: np.ndarray  # (n, n) int32; table[g, h] = g*h
    identity: int
    inverses: np.ndarray  # (n,) int32
    labels: tuple  # length-n tuple of ElementLabel
    index: dict = field(repr=False)  # label -> element index
    #: tables derived from the Cayley table on first use (the search's candidates)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def mul(self, g: int, h: int) -> int:
        n = self.order
        if not (0 <= g < n and 0 <= h < n):
            raise IndexOutOfRange(f"indices ({g}, {h}) out of range for order {n}")
        return int(self.table[g, h])

    def inv(self, g: int) -> int:
        if not (0 <= g < self.order):
            raise IndexOutOfRange(f"index {g} out of range for order {self.order}")
        return int(self.inverses[g])

    def resolve(self, label: ElementLabel) -> int:
        try:
            return self.index[label]
        except (KeyError, TypeError):
            raise LabelNotInGroup(
                f"label {format_element_label(label)} not in group of order {self.order}"
            ) from None

    @cached_property
    def orders(self) -> np.ndarray:
        """(n,) int64: the order of every element, from powers taken all at once."""
        elems = np.arange(self.order)
        power, orders, k = elems, np.zeros(self.order, dtype=np.int64), 1
        while not orders.all():
            orders[(power == self.identity) & (orders == 0)] = k
            power, k = self.table[power, elems], k + 1
        return orders

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))


@dataclass
class ValidationReport:
    """All failed invariant classes of a would-be Cayley table."""

    failures: list  # (kind, message) pairs
    identity: int | None = None  # set when a two-sided identity exists
    inverses: np.ndarray | None = None  # set when all inverses are two-sided

    @property
    def ok(self) -> bool:
        return not self.failures

    def kinds(self) -> set:
        return {k for k, _ in self.failures}

    def __str__(self):
        if self.ok:
            return "table is a valid group"
        return "\n".join(f"{kind}: {msg}" for kind, msg in self.failures)


def validate_table(table: Sequence[Sequence[int]]) -> ValidationReport:
    """Check Latin-square property, identity, inverses and full associativity."""
    failures = []
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        return ValidationReport([("shape", f"not a nonempty square array: {arr.shape}")])
    n = arr.shape[0]
    if arr.min() < 0 or arr.max() >= n:
        return ValidationReport([("range", "entries outside 0..n-1")])
    arr = arr.astype(np.min_scalar_type(n))  # exact, and a small gather below

    full = np.arange(n)
    bad_rows = np.flatnonzero((np.sort(arr, axis=1) != full).any(axis=1))
    bad_cols = np.flatnonzero((np.sort(arr, axis=0) != full[:, None]).any(axis=0))
    for where, bad in (("row", bad_rows), ("column", bad_cols)):
        if len(bad):
            failures.append(("latin-square", f"{where} {bad[0]} is not a permutation"))

    two_sided = np.flatnonzero((arr == full).all(axis=1) & (arr.T == full).all(axis=1))
    identity = int(two_sided[0]) if len(two_sided) else None
    if identity is None:
        failures.append(("identity", "no two-sided identity element"))

    # (g*h)*k vs g*(h*k), exhaustive over all n^3 triples
    lhs = arr[arr, :]
    rhs = np.take(arr, arr, axis=1)  # [g, h, k] = g*(h*k), laid out as lhs
    wrong = lhs != rhs
    if wrong.any():
        g, h, k = np.unravel_index(np.argmax(wrong), wrong.shape)
        failures.append(("associativity", f"first offending triple ({g}, {h}, {k})"))

    inverses = None
    if not len(bad_rows) and not len(bad_cols) and identity is not None:
        inverses = np.argmax(arr == identity, axis=1).astype(np.int32)
        one_sided = np.flatnonzero(arr[inverses, full] != identity)
        if len(one_sided):
            failures.append(("inverses", f"element {one_sided[0]} has no two-sided inverse"))
            inverses = None

    return ValidationReport(failures, identity, inverses)


def _finish_group(table: np.ndarray, labels: tuple, where: str = "") -> CayleyGroup:
    """Validate the table once and wrap it; ``where`` prefixes a failure message."""
    report = validate_table(table)
    if not report.ok:
        raise ValidationError(f"{where}{report}")
    n = table.shape[0]
    if len(set(labels)) != n:
        raise ValidationError("element labels are not pairwise distinct")
    index = {lab: i for i, lab in enumerate(labels)}
    return CayleyGroup(n, table.astype(np.int32), report.identity, report.inverses,
                       tuple(labels), index)


def _coords(spec: GroupSpec, label: ElementLabel) -> tuple:
    """Coordinate sequence a label contributes inside a product (products flatten)."""
    if isinstance(spec, Product):
        return label  # already a tuple of coordinates
    return (label,)


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise OrderMismatch(f"group order {n} exceeds the supported {MAX_ORDER}")


def build_group(spec: GroupSpec) -> CayleyGroup:
    """Construct and validate the group described by ``spec`` (order <= MAX_ORDER).

    Element indexing is mixed-radix lexicographic over the written coordinate
    order (leftmost most significant); semidirect multiplication is
    (n1, h1)(n2, h2) = (n1 * phi^h1(n2), h1 h2).
    """
    if isinstance(spec, Cyclic):
        n = spec.n
        if n <= 0:
            raise OrderMismatch(f"cyclic order must be positive, got {n}")
        _check_order(n)
        i = np.arange(n)
        table = (i[:, None] + i[None, :]) % n
        return _finish_group(table, tuple(range(n)))

    if isinstance(spec, Product):
        left, right = build_group(spec.left), build_group(spec.right)
        _check_order(left.order * right.order)
        # the direct product is the semidirect product with the trivial action
        trivial = np.broadcast_to(np.arange(left.order), (right.order, left.order))
        labels = tuple(
            _coords(spec.left, la) + _coords(spec.right, lb)
            for la in left.labels
            for lb in right.labels
        )
        return _finish_group(_twisted_table(left.table, right.table, trivial), labels)

    if isinstance(spec, Semidirect):
        if not isinstance(spec.actor, Cyclic):
            raise InvalidAction("semidirect actor must be cyclic")
        normal, actor = build_group(spec.normal), build_group(spec.actor)
        phi = _action_automorphism(normal, spec.action)
        powers = [np.arange(normal.order)]  # phi^0, phi^1, ... below the order of phi
        while not np.array_equal(phi[powers[-1]], powers[0]):
            powers.append(phi[powers[-1]])
        if actor.order % len(powers) != 0:
            raise OrderMismatch(
                f"actor order {actor.order} not a multiple of action order {len(powers)}"
            )
        _check_order(normal.order * actor.order)
        powers = np.array(powers)[np.arange(actor.order) % len(powers)]  # row h: phi^h
        labels = tuple(
            (ln, lh) for ln in normal.labels for lh in actor.labels
        )
        return _finish_group(_twisted_table(normal.table, actor.table, powers), labels)

    if isinstance(spec, External):
        return load_cayley_table(spec.path)

    raise ParseError(f"not a group spec: {spec!r}")


def _twisted_table(tn: np.ndarray, th: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Table of N x| H with (n1, h1) at n1*|H| + h1 and
    (n1, h1)(n2, h2) = (n1 * powers[h1][n2], h1 h2)."""
    nn, nh = len(tn), len(th)
    prod = tn[:, powers]  # (n1, h1, n2) -> n1 * phi^h1(n2)
    return (prod[..., None] * nh + th[None, :, None, :]).reshape(nn * nh, nn * nh)


def _action_automorphism(normal: CayleyGroup, action: Iterable) -> np.ndarray:
    """Extend generator images to the full automorphism, or raise InvalidAction."""
    gens = []
    for gen_label, img_label in action:
        try:
            gens.append((normal.resolve(gen_label), normal.resolve(img_label)))
        except Exception:
            raise InvalidAction(
                f"action pair ({gen_label!r} -> {img_label!r}) does not resolve"
            ) from None
    gen, img = np.array(gens, dtype=np.int64).reshape(-1, 2).T
    t = normal.table
    phi = np.full(normal.order, -1, dtype=np.int64)
    phi[normal.identity] = normal.identity
    while True:  # phi(x g) = phi(x) img, breadth first from the identity
        reached = np.flatnonzero(phi >= 0)
        y = t[reached][:, gen].ravel()
        fy = t[phi[reached]][:, img].ravel()
        fresh = phi[y] < 0
        if not fresh.any():
            break
        phi[y[fresh]] = fy[fresh]
    if (phi[y] != fy).any():
        raise InvalidAction("generator images are inconsistent")
    if (phi == -1).any():
        raise InvalidAction("action generators do not generate the normal subgroup")
    if len(np.unique(phi)) != normal.order:
        raise InvalidAction("action images are not a bijection")
    # multiplicativity, exhaustive
    if not np.array_equal(phi[t], t[phi][:, phi]):
        raise InvalidAction("action images do not preserve multiplication")
    return phi


def load_cayley_table(path: str | Path) -> CayleyGroup:
    """Load a Cayley table file: line 1 = n, then n rows of n 0-based indices.

    Lines starting with '#' are comments.  Row g, column h holds g*h.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    rows = [line for line in lines if line and not line.startswith("#")]
    if not rows:
        raise ParseError(f"{path}: empty table file")
    try:
        n = int(rows[0])
    except ValueError:
        raise ParseError(f"{path}: first line must be the order") from None
    if n > MAX_ORDER:
        raise ParseError(f"{path}: order {n} exceeds the supported {MAX_ORDER}")
    if len(rows) != n + 1:
        raise ParseError(f"{path}: expected {n} table rows, found {len(rows) - 1}")
    table = []
    for r, line in enumerate(rows[1:]):
        try:
            vals = [int(v) for v in line.split()]
        except ValueError:
            raise ParseError(f"{path}: non-integer entry in row {r}") from None
        if len(vals) != n:
            raise ParseError(f"{path}: row {r} has {len(vals)} entries, expected {n}")
        if not all(0 <= v < n for v in vals):
            raise ParseError(f"{path}: entries outside 0..{n - 1}")
        table.append(vals)
    return _finish_group(np.asarray(table, dtype=np.int64), tuple(range(n)), f"{path}: ")


def save_cayley_table(group: CayleyGroup, path: str | Path, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"{group.order}\n")
        for g in range(group.order):
            fh.write(" ".join(str(int(x)) for x in group.table[g]) + "\n")


def subgroup_closure(group: CayleyGroup, gens: Iterable[int]) -> frozenset:
    """Subgroup generated by ``gens`` (element indices)."""
    gens = np.asarray(sorted(set(gens)), dtype=np.int64)
    if len(gens) and not (0 <= gens[0] and gens[-1] < group.order):
        raise IndexOutOfRange(f"generators {gens.tolist()} out of range for order {group.order}")
    elems = np.zeros(group.order, dtype=bool)
    elems[group.identity] = True
    while True:  # a finite group: closing under right multiplication suffices
        grown = elems.copy()
        grown[group.table[elems][:, gens]] = True
        if grown.sum() == elems.sum():
            return frozenset(np.flatnonzero(elems).tolist())
        elems = grown


def subgroups_of_order(group: CayleyGroup, k: int) -> list:
    """All subgroups of order k, for small k (generated by at most 2 elements)."""
    t, e, orders = group.table, group.identity, group.orders
    g = np.flatnonzero(orders == k)
    powers = [np.full(len(g), e)]  # powers[j][i] = g_i^j: row i of the stack is <g_i>
    for _ in range(k - 1):
        powers.append(t[powers[-1], g])
    subs = [np.stack(powers, axis=1)]
    if k == 6:  # S3-type subgroups need two generators
        # g of order 3 and an involution h generate a group of order 6
        # exactly when h normalizes <g>, that is h g h is g or g^2
        g = np.flatnonzero(orders == 3)[:, None]
        h = np.flatnonzero(orders == 2)[None, :]
        hgh = t[t[h, g], h]
        i, j = np.nonzero((hgh == g) | (hgh == t[g, g]))
        g, h = g[i, 0], h[0, j]
        g2 = t[g, g]
        subs.append(np.stack([np.full(len(g), e), g, g2, h, t[g, h], t[g2, h]], axis=1))
    found = np.unique(np.sort(np.concatenate(subs), axis=1), axis=0)
    return [frozenset(sub) for sub in found.tolist()]

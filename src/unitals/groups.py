"""Finite groups of the catalog: construction terms, Cayley tables, element labels.

Groups are handled as explicit 0-based Cayley tables (orders here are <= 126,
so exhaustive validation is cheap).  Elements of constructed groups carry
structured labels: plain integers for cyclic groups, tuples for products and
semidirect products, matching the tuple notation of the catalog data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidAction,
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
        from .errors import LabelNotInGroup

        try:
            return self.index[label]
        except (KeyError, TypeError):
            raise LabelNotInGroup(
                f"label {format_element_label(label)} not in group of order {self.order}"
            ) from None

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))


def multiply(group: CayleyGroup, g: int, h: int) -> int:
    return group.mul(g, h)


def inverse(group: CayleyGroup, g: int) -> int:
    return group.inv(g)


@dataclass
class ValidationReport:
    """All failed invariant classes of a would-be Cayley table."""

    failures: list  # (kind, message) pairs

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

    full = np.arange(n)
    latin_ok = True
    for g in range(n):
        if not np.array_equal(np.sort(arr[g]), full):
            failures.append(("latin-square", f"row {g} is not a permutation"))
            latin_ok = False
            break
    for g in range(n):
        if not np.array_equal(np.sort(arr[:, g]), full):
            failures.append(("latin-square", f"column {g} is not a permutation"))
            latin_ok = False
            break

    identity = None
    for e in range(n):
        if np.array_equal(arr[e], full) and np.array_equal(arr[:, e], full):
            identity = e
            break
    if identity is None:
        failures.append(("identity", "no two-sided identity element"))

    # (g*h)*k vs g*(h*k), exhaustive over all n^3 triples
    lhs = arr[arr, :]
    rhs = arr[:, arr.reshape(-1)].reshape(n, n, n)
    if not np.array_equal(lhs, rhs):
        g, h, k = (int(x[0]) for x in np.nonzero(lhs != rhs))
        failures.append(("associativity", f"first offending triple ({g}, {h}, {k})"))

    if latin_ok and identity is not None:
        for g in range(n):
            h = int(np.nonzero(arr[g] == identity)[0][0])
            if arr[h, g] != identity:
                failures.append(("inverses", f"element {g} has no two-sided inverse"))
                break

    return ValidationReport(failures)


def _finish_group(table: np.ndarray, labels: tuple) -> CayleyGroup:
    report = validate_table(table)
    if not report.ok:
        raise ValidationError(str(report))
    n = table.shape[0]
    arr = table.astype(np.int32)
    identity = next(
        e for e in range(n)
        if np.array_equal(arr[e], np.arange(n)) and np.array_equal(arr[:, e], np.arange(n))
    )
    inverses = np.empty(n, dtype=np.int32)
    for g in range(n):
        inverses[g] = int(np.nonzero(arr[g] == identity)[0][0])
    if len(set(labels)) != n:
        raise ValidationError("element labels are not pairwise distinct")
    index = {lab: i for i, lab in enumerate(labels)}
    return CayleyGroup(n, arr, identity, inverses, tuple(labels), index)


def _coords(spec: GroupSpec, label: ElementLabel) -> tuple:
    """Coordinate sequence a label contributes inside a product (products flatten)."""
    if isinstance(spec, Product):
        return label  # already a tuple of coordinates
    return (label,)


def build_group(spec: GroupSpec) -> CayleyGroup:
    """Construct and validate the group described by ``spec``.

    Element indexing is mixed-radix lexicographic over the written coordinate
    order (leftmost most significant); semidirect multiplication is
    (n1, h1)(n2, h2) = (n1 * phi^h1(n2), h1 h2).
    """
    if isinstance(spec, Cyclic):
        n = spec.n
        if n <= 0:
            raise OrderMismatch(f"cyclic order must be positive, got {n}")
        i = np.arange(n)
        table = (i[:, None] + i[None, :]) % n
        return _finish_group(table, tuple(range(n)))

    if isinstance(spec, Product):
        left, right = build_group(spec.left), build_group(spec.right)
        nl, nr = left.order, right.order
        tl = left.table.astype(np.int64)
        tr = right.table.astype(np.int64)
        # index (a, b) -> a*nr + b
        block = tl[:, None, :, None] * nr + tr[None, :, None, :]
        table = block.reshape(nl * nr, nl * nr)
        labels = tuple(
            _coords(spec.left, la) + _coords(spec.right, lb)
            for la in left.labels
            for lb in right.labels
        )
        return _finish_group(table, labels)

    if isinstance(spec, Semidirect):
        if not isinstance(spec.actor, Cyclic):
            raise InvalidAction("semidirect actor must be cyclic")
        normal, actor = build_group(spec.normal), build_group(spec.actor)
        phi = _action_automorphism(normal, spec.action)
        ord_phi = _permutation_order(phi)
        if actor.order % ord_phi != 0:
            raise OrderMismatch(
                f"actor order {actor.order} not a multiple of action order {ord_phi}"
            )
        nn, nh = normal.order, actor.order
        powers = np.empty((nh, nn), dtype=np.int64)
        powers[0] = np.arange(nn)
        for k in range(1, nh):
            powers[k] = phi[powers[k - 1]]
        tn = normal.table.astype(np.int64)
        table = np.empty((nn * nh, nn * nh), dtype=np.int64)
        for h1 in range(nh):
            twisted = powers[h1]  # phi^h1
            prod_n = tn[:, twisted]  # (n1, n2) -> n1 * phi^h1(n2)
            for h2 in range(nh):
                h = actor.table[h1, h2]
                table[h1::nh, h2::nh] = prod_n * nh + h
        labels = tuple(
            (ln, lh) for ln in normal.labels for lh in actor.labels
        )
        return _finish_group(table, labels)

    if isinstance(spec, External):
        return load_cayley_table(spec.path)

    raise ParseError(f"not a group spec: {spec!r}")


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
    n = normal.order
    phi = np.full(n, -1, dtype=np.int64)
    phi[normal.identity] = normal.identity
    frontier = [normal.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in gens:
                y = normal.mul(x, g)
                fy = normal.mul(int(phi[x]), img)
                if phi[y] == -1:
                    phi[y] = fy
                    nxt.append(y)
                elif phi[y] != fy:
                    raise InvalidAction("generator images are inconsistent")
        frontier = nxt
    if (phi == -1).any():
        raise InvalidAction("action generators do not generate the normal subgroup")
    if len(set(phi.tolist())) != n:
        raise InvalidAction("action images are not a bijection")
    # multiplicativity, exhaustive
    t = normal.table.astype(np.int64)
    if not np.array_equal(phi[t], t[phi][:, phi]):
        raise InvalidAction("action images do not preserve multiplication")
    return phi


def _permutation_order(perm: np.ndarray) -> int:
    n = len(perm)
    k, p = 1, perm.copy()
    ident = np.arange(n)
    while not np.array_equal(p, ident):
        p = perm[p]
        k += 1
        if k > n * n:
            raise InvalidAction("not a permutation")
    return k


def load_cayley_table(path: str | Path) -> CayleyGroup:
    """Load a Cayley table file: line 1 = n, then n rows of n 0-based indices.

    Lines starting with '#' are comments.  Row g, column h holds g*h.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line)
    if not rows:
        raise ParseError(f"{path}: empty table file")
    try:
        n = int(rows[0])
    except ValueError:
        raise ParseError(f"{path}: first line must be the order") from None
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
        table.append(vals)
    arr = np.asarray(table, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ParseError(f"{path}: entries outside 0..{n - 1}")
    report = validate_table(arr)
    if not report.ok:
        raise ValidationError(f"{path}: {report}")
    return _finish_group(arr, tuple(range(n)))


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
    gens = sorted(set(gens))
    elems = {group.identity}
    frontier = list(gens)
    elems.update(frontier)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (group.mul(x, g), group.mul(g, x)):
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
        frontier = nxt
    return frozenset(elems)


def subgroups_of_order(group: CayleyGroup, k: int) -> list:
    """All subgroups of order k, for small k (generated by at most 2 elements)."""
    found = set()
    elems = range(group.order)
    singles = [g for g in elems if group.element_order(g) == k]
    for g in singles:
        found.add(subgroup_closure(group, [g]))
    if k == 6:  # S3-type subgroups need two generators
        for g in elems:
            if group.element_order(g) != 3:
                continue
            for h in elems:
                if group.element_order(h) != 2:
                    continue
                sub = subgroup_closure(group, [g, h])
                if len(sub) == k:
                    found.add(sub)
    return sorted(found, key=sorted)

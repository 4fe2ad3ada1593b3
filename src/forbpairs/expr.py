"""A small expression language for building catalog graphs.

Grammar::

    expr  := term ('+' term)*
    term  := [int] atom | 'co(' expr ')'
    atom  := 'K' nums | 'P' int | 'C' int | name
    nums  := int (',' int)*
    name  := 'D' | 'Z1' | 'Z2' | 'chair' | 'gem'

'+' is disjoint union and an integer prefix is a multiplicity, so
"2K1+K2" is two isolated vertices plus an edge and "co(K3+P4)" is the
complement of K3 u P4.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .graphs import Graph, MAX_VERTICES, complement, disjoint_union


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Atom:
    name: str
    params: tuple[int, ...] = ()


@dataclass(frozen=True)
class Union:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Multiple:
    count: int
    expr: "Node"


@dataclass(frozen=True)
class Complement:
    expr: "Node"


Node = Atom | Union | Multiple | Complement


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ExprError:
        return ExprError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def read_word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos]

    def parse(self) -> Node:
        node = self.parse_union()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return node

    def parse_union(self) -> Node:
        """expr: terms joined by '+', up to the first character after them."""
        node = self.parse_term()
        self.skip_ws()
        while self.peek() == "+":
            self.pos += 1
            node = Union(node, self.parse_term())
            self.skip_ws()
        return node

    def parse_term(self) -> Node:
        self.skip_ws()
        if self.peek().isdigit():
            at = self.pos
            count = self.read_int()
            if count == 0:
                self.pos = at
                raise self.error("multiplicity must be at least 1")
            atom = self.parse_atom(allow_co=False)
            return atom if count == 1 else Multiple(count, atom)
        return self.parse_atom(allow_co=True)

    def parse_atom(self, allow_co: bool) -> Node:
        self.skip_ws()
        at = self.pos
        word = self.read_word()
        if not word:
            raise self.error("expected a graph atom")
        if word == "co":
            self.skip_ws()
            if not allow_co:
                self.pos = at
                raise self.error("a multiplicity cannot prefix 'co(...)'")
            if self.peek() != "(":
                self.pos = at
                raise self.error("'co' must be followed by '('")
            self.pos += 1
            inner = self.parse_union()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return Complement(inner)
        if word == "K":
            nums = [self.read_int()]
            while self.peek() == ",":
                self.pos += 1
                nums.append(self.read_int())
            if any(v < 1 for v in nums):
                self.pos = at
                raise self.error("K parts must be at least 1")
            return Atom("K", tuple(nums))
        if word == "P":
            n = self.read_int()
            if n < 1:
                self.pos = at
                raise self.error("P needs at least 1 vertex")
            return Atom("P", (n,))
        if word == "C":
            n = self.read_int()
            if n < 3:
                self.pos = at
                raise self.error("C needs at least 3 vertices")
            return Atom("C", (n,))
        if word == "Z":
            n = self.read_int()
            if n not in (1, 2):
                self.pos = at
                raise self.error("only Z1 and Z2 are defined")
            return Atom(f"Z{n}")
        if word in ("D", "chair", "gem"):
            return Atom(word)
        self.pos = at
        raise self.error(f"unknown graph name {word!r}")


def parse_expr(text: str) -> Node:
    return _Parser(text).parse()


def eval_expr(node: Node) -> Graph:
    if isinstance(node, Atom):
        if node.name == "K":
            if len(node.params) == 1:
                return catalog.complete(node.params[0])
            return catalog.complete_multipartite(node.params)
        if node.name == "P":
            return catalog.path(node.params[0])
        if node.name == "C":
            return catalog.cycle(node.params[0])
        if node.name == "D":
            return catalog.diamond()
        if node.name == "Z1":
            return catalog.paw()
        if node.name == "Z2":
            return catalog.hammer()
        if node.name == "chair":
            return catalog.chair()
        if node.name == "gem":
            return catalog.gem()
        raise ValueError(f"unknown atom {node.name!r}")
    if isinstance(node, Union):
        return disjoint_union(eval_expr(node.left), eval_expr(node.right))
    if isinstance(node, Multiple):
        g = eval_expr(node.expr)
        if node.count * g.n > MAX_VERTICES:
            raise ValueError("expression exceeds the 64-vertex cap")
        out = g
        for _ in range(node.count - 1):
            out = disjoint_union(out, g)
        return out
    if isinstance(node, Complement):
        return complement(eval_expr(node.expr))
    raise TypeError(f"not an expression node: {node!r}")


def graph_from_expr(text: str) -> Graph:
    return eval_expr(parse_expr(text))

"""Set literals, the command line's notation for sets: ``o`` or ``{o,{o,a}}``.

A literal is an atom name or a brace-wrapped, comma-separated list of
literals. Parsing interns missing composites on the fly; a singleton of an
atom collapses onto the atom, and empty braces are an error because there is
no empty set. Braces nest at most :data:`~quineset.core.MAX_NESTING` deep,
which keeps the recursive parser inside the interpreter's stack; deeper
input is a syntax error. Printing any id and re-parsing it yields the same
id, for a set that nests no deeper than that; a deeper set prints, but its
literal does not parse.
"""

from __future__ import annotations

from .core import MAX_NESTING, NAME_RE, SetId, Universe
from .errors import LiteralSyntaxError


class _LiteralParser:
    def __init__(self, universe: Universe, text: str):
        self.universe = universe
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str | None:
        self._skip_space()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def value(self) -> SetId:
        ch = self._peek()
        if ch == "{":
            return self._braced()
        match = NAME_RE.match(self.text, self.pos)
        if match is None:
            raise LiteralSyntaxError(
                f"expected an atom name or '{{' but found {ch!r}", self.pos
            )
        self.pos = match.end()
        return self.universe.atom_id(match.group())

    def _braced(self) -> SetId:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise LiteralSyntaxError(
                f"literal nests deeper than {MAX_NESTING} braces", self.pos
            )
        self.pos += 1  # past "{"
        if self._peek() == "}":
            raise LiteralSyntaxError("a set needs at least one member", self.pos)
        members = [self.value()]
        while True:
            ch = self._peek()
            if ch == ",":
                self.pos += 1
                members.append(self.value())
            elif ch == "}":
                self.pos += 1
                self.depth -= 1
                return self.universe.intern(members)
            else:
                raise LiteralSyntaxError(
                    f"expected ',' or '}}' but found {ch!r}", self.pos
                )


def parse_set_literal(universe: Universe, text: str) -> SetId:
    """Resolve a literal to a set id, interning composites as needed."""
    parser = _LiteralParser(universe, text)
    sid = parser.value()
    if parser._peek() is not None:
        raise LiteralSyntaxError(
            f"unexpected trailing input {parser._peek()!r}", parser.pos
        )
    return sid


def format_set_literal(universe: Universe, sid: SetId) -> str:
    """Render a set id as a literal, atoms by name, members in id order.

    Members precede their sets, so each composite below ``sid`` is written
    once, in increasing id order, from its members' texts: a set that nests
    however deep is rendered without recursion.
    """
    names = universe.atom_names
    if universe.is_atom(sid):
        return names[sid]
    composites = {sid}
    todo = [sid]
    while todo:
        for m in universe.members(todo.pop()):
            if m >= len(names) and m not in composites:
                composites.add(m)
                todo.append(m)
    text = dict(enumerate(names))
    for s in sorted(composites):
        text[s] = "{" + ",".join(map(text.__getitem__, universe.members(s))) + "}"
    return text[sid]

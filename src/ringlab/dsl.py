"""Ring-expression grammar shared by corpus files and the CLI: `parse` reads an
expression once, whitespace ignored, into a tree of plain tuples, where
parentheses leave no node and generator and m.c.s. lists stay text:

    Z                          ("Z",)                  the integers
    Z{n}                       ("Z", n)                integers mod n
    {expr} x {expr} x ...      ("x", e1, e2, ...)      componentwise product (left associative)
    {expr}/({gens})            ("/", e, gens)          quotient by the ideal the generators span
    triv({expr}, free(k)|quot(gens))   ("triv", e, ("free", k)|("quot", gens))   trivial extension by a module
    amalg({e1},{e2},id|proj,({gens}))   ("amalg", e1, e2, "id"|"proj", "(gens)")   along an ideal of e2
    loc({expr}, S<{gens}>)     ("loc", e, "S<gens>")   localization at a generated m.c.s.
    polyring({expr})           ("polyring", e)         the polynomial ring over a finite ring
    amalgZ(n, d)               ("amalgZ", n, d)        Z joined to Z_n along dZ_n

`lane` reads from the tree which lane builds it: `build_ring` a finite ring,
`arith_ring` a product with a ``Z`` factor, whose ideals and m.c.s. are
per-factor descriptors (``(0,2)``; ``(units,all)``; ``({1,-1},all)``).
Generator tokens are element labels first (so ``(1,0)`` names the obvious
element of a product ring) with bare integers falling back to element indices.
"""

from __future__ import annotations

from functools import reduce

from .arith import INT, ArithIdeal, ArithMCS, ArithRing, mod_factor
from .errors import ParseError
from .extensions import make_module_free, make_module_quotient, make_trivial_extension, make_amalgamation
from .ideals import Ideal, MulClosedSet, ideal_generate, localize, mcs_generate
from .rings import FiniteRing, RingHom, make_product, make_quotient, make_zn

FINITE = "finite"
ARITH = "arith"
POLY = "poly"
AMALGZ = "amalgz"

_OPEN = "({[<"
_CLOSE = ")}]>"
_ALONE = {"polyring": POLY, "amalgZ": AMALGZ}
_LANE_RULE = "Z stands only in a product of Z and Z<n> atoms, and polyring and amalgZ only alone"
_SIGNATURES = {"triv": (2, "(ring, module)"), "amalg": (4, "(ring1, ring2, id|proj, (gens))"), "loc": (2, "(ring, S<gens>)"), "polyring": (1, "(ring)")}


def _strip(text: str) -> str:
    return "".join(text.split())


def split_top(text: str, sep: str):
    """Split on a separator character at bracket depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in _OPEN) - (ch in _CLOSE)
        if depth < 0:
            raise ParseError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    return parts + [text[start:]]


def _parenthesized(text: str) -> bool:
    """Whether ``text`` is ``(...)``, its first bracket closed by its last character."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch in _OPEN) - (ch in _CLOSE)
        if depth == 0:
            return i == len(text) - 1 and text[0] == "(" and ch == ")"
    return False


def parse(text: str):
    """The tree of a ring expression (see the module docstring)."""
    return _expr(_strip(text))


def _expr(text):
    if not text:
        raise ParseError("empty ring expression")
    factors = split_top(text, "x")
    if len(factors) > 1:
        return ("x", *map(_expr, factors))
    pieces = split_top(text, "/")
    tree = _atom(pieces[0])
    for q in pieces[1:]:
        if not _parenthesized(q):
            raise ParseError(f"quotient needs parenthesized generators, got {q!r}")
        tree = ("/", tree, q[1:-1])
    return tree


def _call(text):
    """(name, arguments) of a call ``name(a, b, ...)``, or (None, None)."""
    name, paren, rest = text.partition("(")
    return (name, split_top(rest[:-1], ",")) if _parenthesized(paren + rest) else (None, None)


def _ints(text, count):
    """The integer arguments of a call such as ``free(k)`` or ``amalgZ(n, d)``."""
    name, args = _call(text)
    if len(args) != count or not all(a.removeprefix("-").isdecimal() for a in args):
        raise ParseError(f"{name} needs {('one integer', 'two integers')[count - 1]}, got {text!r}")
    return tuple(map(int, args))


def _atom(text):
    if _parenthesized(text):
        return _expr(text[1:-1])
    if text == "Z" or text.startswith("Z") and text[1:].isdecimal():
        return ("Z", int(text[1:])) if text[1:] else ("Z",)
    name, args = _call(text)
    if name == "amalgZ":
        return (name, *_ints(text, 2))
    if name not in _SIGNATURES:
        raise ParseError(f"cannot parse ring expression {text!r}")
    if len(args) != _SIGNATURES[name][0]:
        raise ParseError(f"{name} needs {_SIGNATURES[name][1]}")
    base = _expr(args[0])
    if name == "triv":
        kind, margs = _call(args[1])
        if kind not in ("free", "quot"):
            raise ParseError(f"module expression must be free(k) or quot(gens), got {args[1]!r}")
        return (name, base, (kind, *_ints(args[1], 1)) if kind == "free" else (kind, ",".join(margs)))
    if name == "amalg":
        e2, spec, gens = _expr(args[1]), args[2], args[3]
        if spec not in ("id", "proj"):
            raise ParseError(f"hom spec must be id or proj, got {spec!r}")
        if e2 != (base if spec == "id" else ("/", base, e2[-1])):
            raise ParseError(f"amalg with {spec} needs ring2 = {'ring1' if spec == 'id' else 'ring1/(gens)'}")
        if not _parenthesized(gens):
            raise ParseError("amalg generators must be parenthesized")
        return (name, base, e2, spec, gens)
    return (name, base, *args[1:])


def show(tree) -> str:
    """An expression's text from its tree: `` x `` between factors, no other space."""
    tag, *args = tree
    if tag == "Z":
        return "Z" + "".join(map(str, args))
    if tag == "x":
        return " x ".join(map(_grouped, args))
    if tag == "/":
        return f"{_grouped(args[0])}/({args[1]})"
    return f"{tag}({','.join(show(a) if isinstance(a, tuple) else str(a) for a in args)})"


def _grouped(tree):
    return f"({show(tree)})" if tree[0] == "x" else show(tree)


def _edges(tree):
    """(node, child) for every ring subexpression below ``tree``, parents first."""
    tag = tree[0]
    for sub in tree[1:] if tag == "x" else tree[1:3] if tag == "amalg" else () if tag in ("Z", "amalgZ") else tree[1:2]:
        yield tree, sub
        yield from _edges(sub)


def lane(tree) -> str:
    """The lane that builds an expression, read from its tree: a top-level ``polyring(base)``
    is POLY, over a FINITE base; a top-level ``amalgZ(n, d)`` is AMALGZ; any other expression
    that holds a ``Z`` atom is ARITH, and must be a product of ``Z`` and ``Z{n}`` atoms,
    parentheses allowed; anything else is FINITE.  A mix no lane builds, such as ``Z`` inside
    triv, loc or polyring, or polyring inside a product, is a ParseError naming the subtree
    and the node it stands in."""
    kind = _ALONE.get(tree[0]) or (ARITH if ("Z",) in (tree, *(sub for _, sub in _edges(tree))) else FINITE)
    for node, sub in _edges(tree):
        if sub[0] in _ALONE or (kind == ARITH and not (node[0] == "x" and sub[0] in ("x", "Z"))) or (kind == POLY and lane(sub) != FINITE):
            raise ParseError(f"{show(sub)!r} cannot stand inside {show(node)!r}: {_LANE_RULE}")
    return kind


def parse_element(R: FiniteRing, token: str) -> int:
    token = _strip(token)
    for i, lab in enumerate(R.labels):
        if _strip(lab) == token:
            return i
    try:
        idx = int(token)
    except ValueError:
        raise ParseError(f"{token!r} is neither a label nor an index of {R.recipe}") from None
    if not 0 <= idx < R.size:
        raise ParseError(f"index {idx} out of range for {R.recipe}")
    return idx


def parse_gens(R: FiniteRing, text: str):
    text = _strip(text)
    if not text:
        return ()
    parts = split_top(text, ",")
    if len(parts) > 1:
        return tuple(parse_element(R, t) for t in parts)
    try:
        return (parse_element(R, text),)
    except ParseError:
        pass
    if _parenthesized(text):
        return parse_gens(R, text[1:-1])
    raise ParseError(f"cannot resolve generator list {text!r} in {R.recipe}")


def parse_ideal(R: FiniteRing, text: str) -> Ideal:
    return ideal_generate(R, parse_gens(R, text))


def parse_mcs(R: FiniteRing, text: str) -> MulClosedSet:
    text = _strip(text)
    if text.startswith("S<") and text.endswith(">"):
        text = text[2:-1]
    return mcs_generate(R, parse_gens(R, text))


def _descriptors(R: ArithRing, text: str, what: str):
    """The per-factor descriptor texts of an annotation such as ``(0,2)``, one per factor of R."""
    text = _strip(text)
    parts = split_top(text[1:-1] if _parenthesized(text) else text, ",")
    if len(parts) != R.width:
        raise ParseError(f"expected {R.width} {what} descriptors, got {len(parts)}")
    return parts


def parse_arith_ideal(R: ArithRing, text: str) -> ArithIdeal:
    try:
        descs = tuple(int(p) for p in _descriptors(R, text, "ideal"))
    except ValueError:
        raise ParseError(f"ideal descriptors must be integers: {text!r}") from None
    return ArithIdeal(R, descs)


def parse_arith_mcs(R: ArithRing, text: str) -> ArithMCS:
    descs = []
    for p in _descriptors(R, text, "m.c.s."):
        if p in ("units", "all"):
            descs.append((p,))
        elif p.startswith("{") and p.endswith("}"):
            try:
                members = frozenset(int(v) for v in split_top(p[1:-1], ","))
            except ValueError:
                raise ParseError(f"bad finite m.c.s. factor {p!r}") from None
            descs.append(("fin", members))
        else:
            raise ParseError(f"m.c.s. descriptors are units|all|{{...}}, got {p!r}")
    return ArithMCS(R, tuple(descs))


def arith_ring(tree) -> ArithRing:
    """The ring of a product of ``Z`` and ``Z{n}`` atoms, given as its tree."""
    if tree[0] == "x":
        return ArithRing(tuple(n for f in tree[1:] for n in arith_ring(f).factors))
    if tree[0] != "Z":
        raise ParseError(f"arithmetic factors must be Z or Z<n>, got {show(tree)!r}")
    return ArithRing((INT if tree == ("Z",) else mod_factor(tree[1]),))


def parse_arith_ring(text: str) -> ArithRing:
    return arith_ring(parse(text))


def parse_ring(expr) -> FiniteRing:
    """The finite ring of an expression, given as its text or its tree."""
    return build_ring(parse(expr) if isinstance(expr, str) else expr)[0]


def build_ring(tree):
    """(ring, structure) of a finite-ring expression's tree: ``structure`` is the
    ``TrivExtRing`` or ``AmalgRing`` the whole expression denotes, else None.  Product
    factors and the bases of triv, amalg and loc are built through `parse_ring`."""
    if lane(tree) != FINITE:
        raise ParseError(f"{show(tree)!r} is not a finite ring")
    tag = tree[0]
    if tag == "Z":
        return make_zn(tree[1]), None
    if tag == "x":
        return reduce(make_product, map(parse_ring, tree[1:])), None
    if tag == "/":
        base = build_ring(tree[1])[0]
        return make_quotient(base, parse_ideal(base, tree[2]))[0], None
    base = parse_ring(tree[1])
    if tag == "loc":
        return localize(base, parse_mcs(base, tree[2])).localized, None
    if tag == "amalg":
        if tree[3] == "id":
            h2, hom = base, RingHom(base, base, tuple(range(base.size)))  # make_amalgamation checks it
        else:
            h2, hom = make_quotient(base, parse_ideal(base, tree[2][2]))
        am = make_amalgamation(base, h2, hom, parse_ideal(h2, tree[4][1:-1]), hom_text=tree[3])
        return am.ring, am
    kind, arg = tree[2]
    T = make_trivial_extension(base, make_module_free(base, arg) if kind == "free" else make_module_quotient(base, parse_ideal(base, arg)))
    return T.ring, T

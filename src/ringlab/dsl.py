"""Ring-expression grammar shared by corpus files and the CLI.

Whitespace-insensitive.  Shapes:

    Z{n}                       integers mod n
    {expr} x {expr}            componentwise product (left associative)
    {expr}/({gens})            quotient by the ideal the generators span
    triv({expr}, free(k))      trivial extension by a free module
    triv({expr}, quot(gens))   trivial extension by a cyclic quotient module
    amalg({e1},{e2},id|proj,({gens}))   amalgamation along an ideal of e2
    loc({expr}, S<{gens}>)     localization at a generated m.c.s.

A bare ``Z`` factor switches the expression to the arithmetic lane: the
whole expression must then be a product of ``Z`` and ``Z{n}`` atoms, and
ideals / m.c.s. are given by per-factor descriptors instead of generators
(``(0,2)``; ``(units,all)``; ``({1,-1},all)``).

Generator tokens are element labels first (so ``(1,0)`` names the obvious
element of a product ring) with bare integers falling back to element
indices.
"""

from __future__ import annotations

from .arith import INT, ArithIdeal, ArithMCS, ArithRing, mod_factor
from .errors import ParseError
from .extensions import make_module_free, make_module_quotient, make_trivial_extension, make_amalgamation
from .ideals import Ideal, MulClosedSet, ideal_generate, localize, mcs_generate
from .rings import FiniteRing, RingHom, make_product, make_quotient, make_zn

_OPEN = "({[<"
_CLOSE = ")}]>"


def _strip(text: str) -> str:
    return "".join(text.split())


def split_top(text: str, sep: str):
    """Split on a separator character at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return parts


def _call_args(text: str, name: str):
    body = text[len(name) + 1 : -1]
    return split_top(body, ",")


def _is_call(text: str, name: str) -> bool:
    return text.startswith(name + "(") and text.endswith(")")


_COUNTS = {1: "one integer", 2: "two integers"}


def int_args(text: str, name: str, count: int):
    """The integer arguments of ``name(i1, ..., i_count)``, e.g. ``free(k)`` or ``amalgZ(n, d)``."""
    args = _call_args(_strip(text), name)
    if len(args) != count or not all(a.removeprefix("-").isdecimal() for a in args):
        raise ParseError(f"{name} needs {_COUNTS[count]}, got {text!r}")
    return tuple(int(a) for a in args)


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


def parse_arith_ring(text: str) -> ArithRing:
    factors = []
    for f in split_top(_strip(text), "x"):
        f = _strip(f)
        if f == "Z":
            factors.append(INT)
        elif f.startswith("Z") and f[1:].isdigit():
            factors.append(mod_factor(int(f[1:])))
        else:
            raise ParseError(f"arithmetic factors must be Z or Z<n>, got {f!r}")
    return ArithRing(tuple(factors))


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
        if p == "units":
            descs.append(("units",))
        elif p == "all":
            descs.append(("all",))
        elif p.startswith("{") and p.endswith("}"):
            try:
                members = frozenset(int(v) for v in split_top(p[1:-1], ","))
            except ValueError:
                raise ParseError(f"bad finite m.c.s. factor {p!r}") from None
            descs.append(("fin", members))
        else:
            raise ParseError(f"m.c.s. descriptors are units|all|{{...}}, got {p!r}")
    return ArithMCS(R, tuple(descs))


def parse_ring(text: str) -> FiniteRing:
    """Parse a finite-ring expression."""
    return parse_ring_structure(text)[0]


def parse_ring_structure(text: str):
    """Parse a finite-ring expression into (ring, structure).

    ``structure`` is the ``TrivExtRing`` or ``AmalgRing`` the whole
    expression denotes (parentheses aside), or None when its top level is a
    product, a quotient or any other atom.
    """
    text = _strip(text)
    if not text:
        raise ParseError("empty ring expression")
    factors = split_top(text, "x")
    if len(factors) > 1:
        ring = parse_ring(factors[0])
        for f in factors[1:]:
            ring = make_product(ring, parse_ring(f))
        return ring, None
    pieces = split_top(factors[0], "/")
    ring, structure = _parse_atom(pieces[0])
    for q in pieces[1:]:
        ring, _ = _quotient(ring, q)
        structure = None
    return ring, structure


def _quotient(R: FiniteRing, text: str):
    """R/(gens) and its projection, for the text ``(gens)`` after a ``/``."""
    text = _strip(text)
    if not _parenthesized(text):
        raise ParseError(f"quotient needs parenthesized generators, got {text!r}")
    return make_quotient(R, parse_ideal(R, text[1:-1]))


def _parenthesized(text: str) -> bool:
    if not (text.startswith("(") and text.endswith(")")):
        return False
    depth = 0
    for i, ch in enumerate(text):
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
            if depth == 0 and i < len(text) - 1:
                return False
    return depth == 0


def _parse_atom(text: str):
    text = _strip(text)
    if _parenthesized(text):
        return parse_ring_structure(text[1:-1])
    if text.startswith("Z") and text[1:].isdigit():
        return make_zn(int(text[1:])), None
    if _is_call(text, "triv"):
        args = _call_args(text, "triv")
        if len(args) != 2:
            raise ParseError("triv needs (ring, module)")
        base = parse_ring(args[0])
        mod = _strip(args[1])
        if _is_call(mod, "free"):
            module = make_module_free(base, *int_args(mod, "free", 1))
        elif _is_call(mod, "quot"):
            gens = ",".join(_call_args(mod, "quot"))
            module = make_module_quotient(base, parse_ideal(base, gens))
        else:
            raise ParseError(f"module expression must be free(k) or quot(gens), got {mod!r}")
        T = make_trivial_extension(base, module)
        return T.ring, T
    if _is_call(text, "amalg"):
        args = _call_args(text, "amalg")
        if len(args) != 4:
            raise ParseError("amalg needs (ring1, ring2, id|proj, (gens))")
        e1, e2, spec, gens = (_strip(a) for a in args)
        if spec == "id":
            if e1 != e2:
                raise ParseError("amalg with id needs identical component expressions")
            h1 = parse_ring(e1)
            h2 = h1
            hom = RingHom(h1, h2, tuple(range(h1.size)))  # make_amalgamation checks it
        elif spec == "proj":
            pieces = split_top(e2, "/")
            if len(pieces) != 2 or _strip(pieces[0]) != e1:
                raise ParseError("amalg with proj needs ring2 = ring1/(gens)")
            h1 = parse_ring(e1)
            h2, hom = _quotient(h1, pieces[1])
        else:
            raise ParseError(f"hom spec must be id or proj, got {spec!r}")
        if not _parenthesized(gens):
            raise ParseError("amalg generators must be parenthesized")
        J = parse_ideal(h2, gens[1:-1])
        am = make_amalgamation(h1, h2, hom, J, hom_text=spec)
        return am.ring, am
    if _is_call(text, "loc"):
        args = _call_args(text, "loc")
        if len(args) != 2:
            raise ParseError("loc needs (ring, S<gens>)")
        base = parse_ring(args[0])
        return localize(base, parse_mcs(base, args[1])).localized, None
    raise ParseError(f"cannot parse ring expression {text!r}")

"""First-order mini-language over graphs with distance atoms.

Concrete syntax (ASCII):

    exists x [within d of y] . F      forall x [within d of y] . F
    E(x,y)    x = y    dist(x,y) <= d    dist(x,y) > d    P(x)
    true    false    !F    F & G    F | G    (F)

`&` binds tighter than `|`, `!` tighter than both, and a quantifier body
extends as far right as possible.  `dist(x,y) > d` is sugar for the negated
distance atom.  `P(x)` is a single unary predicate whose extension (a vertex
set) is supplied at evaluation time.

A sentence in Gaifman basic-local shape asserts k witnesses, pairwise at
distance greater than 2r, each satisfying an r-local one-variable property;
locality is a syntactic check: every quantifier is relativized and the
cumulative radii stay within r of the free variable.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass

from .errors import (AlgorithmStallError, CapabilityError, FormulaParseError,
                     FormulaScopeError, LocalityError, PreconditionError)
from .graph import (Graph, ball, bfs_distances, foreign_vertices,
                    induced_subgraph, iter_bits, least_independent, mask_ball)


# ----------------------------------------------------------------- AST

@dataclass(frozen=True)
class Lit:
    value: bool


@dataclass(frozen=True)
class Eq:
    a: str
    b: str


@dataclass(frozen=True)
class Edge:
    a: str
    b: str


@dataclass(frozen=True)
class DistLe:
    a: str
    b: str
    d: int


@dataclass(frozen=True)
class Pred:
    a: str


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Quant:
    kind: str       # "exists" | "forall"
    var: str
    anchor: object  # variable name, or None when unrelativized
    d: object       # radius, or None
    body: object


_KEYWORDS = {"exists", "forall", "within", "of", "dist", "E", "P", "true", "false"}


# --------------------------------------------------------------- parsing

# a name, a number, an operator, or (group 2) a stray character
_TOKEN = re.compile(r"([^\W\d]\w*|\d+|<=|[()=&|!.,>])|(\S)")

# the longest formula text read; it also bounds how deep the parser and every
# walk over a parsed formula recurse
MAX_FORMULA_TOKENS = 256


def _tokens(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        if m[2]:
            raise FormulaParseError(f"unexpected character {m[2]!r}", m.start())
        if len(out) == MAX_FORMULA_TOKENS:
            raise FormulaParseError(f"formula longer than {MAX_FORMULA_TOKENS} tokens", m.start())
        out.append((m[1], m.start()))
    out.append((None, len(text)))
    return out


def _shown(tok) -> str:
    """A token as an error message quotes it: at most 32 of its characters,
    and its length when it has more, so a message stays short whatever the
    input."""
    if tok is None or len(tok) <= 32:
        return repr(tok)
    return f"{tok[:32]!r}... ({len(tok)} characters)"


def _shown_names(names) -> str:
    """Variable names, sorted and printed as a list, each quoted by `_shown`."""
    return f"[{', '.join(map(_shown, sorted(names)))}]"


class _Parser:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        tok, pos = self.toks[self.i]
        self.i += 1
        return tok, pos

    def expect(self, want):
        tok, pos = self.next()
        if tok != want:
            raise FormulaParseError(f"expected {want!r}, got {_shown(tok)}", pos)
        return pos

    def name(self):
        tok, pos = self.next()
        if tok is None or not (tok[0].isalpha() or tok[0] == "_"):
            raise FormulaParseError(f"expected a variable name, got {_shown(tok)}", pos)
        if tok in _KEYWORDS:
            raise FormulaParseError(f"{tok!r} is a reserved word", pos)
        return tok

    def names(self, k):
        """`(a)`, `(a,b)`: k variable names in parentheses."""
        self.expect("(")
        out = [self.name()]
        while len(out) < k:
            self.expect(",")
            out.append(self.name())
        self.expect(")")
        return out

    def number(self):
        tok, pos = self.next()
        if tok is not None and tok.isdecimal():
            try:
                return int(tok)
            except ValueError:  # more digits than int() reads
                pass
        raise FormulaParseError(f"expected a number, got {_shown(tok)}", pos)

    def formula(self):
        out = self.and_expr()
        while self.peek() == "|":
            self.next()
            out = Or(out, self.and_expr())
        return out

    def and_expr(self):
        out = self.unary()
        while self.peek() == "&":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.next()
            return Not(self.unary())
        if tok in ("exists", "forall"):
            self.next()
            var = self.name()
            anchor = d = None
            if self.peek() == "within":
                self.next()
                d = self.number()
                self.expect("of")
                anchor = self.name()
            self.expect(".")
            return Quant(tok, var, anchor, d, self.formula())
        return self.primary()

    def primary(self):
        tok, pos = self.next()
        if tok == "(":
            out = self.formula()
            self.expect(")")
            return out
        if tok == "true":
            return Lit(True)
        if tok == "false":
            return Lit(False)
        if tok == "E":
            return Edge(*self.names(2))
        if tok == "P":
            return Pred(*self.names(1))
        if tok == "dist":
            a, b = self.names(2)
            op, oppos = self.next()
            if op not in ("<=", ">"):  # checked first: at the end of the text no bound follows
                raise FormulaParseError(f"expected <= or >, got {_shown(op)}", oppos)
            atom = DistLe(a, b, self.number())
            return atom if op == "<=" else Not(atom)
        if tok is not None and (tok[0].isalpha() or tok[0] == "_") and tok not in _KEYWORDS:
            self.expect("=")
            return Eq(tok, self.name())
        raise FormulaParseError(f"unexpected token {_shown(tok)}", pos)


def parse_formula(text: str, free=()) -> object:
    """Parse; `free` names the variables allowed to occur unbound (none by
    default, so the text must be a sentence).  free=None allows any.  Any
    other unbound name is a FormulaScopeError naming the least of them."""
    p = _Parser(text)
    out = p.formula()
    tok, pos = p.toks[p.i]
    if tok is not None:
        raise FormulaParseError(f"trailing input {_shown(tok)}", pos)
    if free is not None:
        stray = free_vars(out) - frozenset(free)
        if stray:
            raise FormulaScopeError(f"variable or anchor {_shown(min(stray))} is not in scope")
    return out


# ------------------------------------------------------------- rendering

def to_text(f) -> str:
    """Concrete syntax; parse_formula(to_text(f), free=None) == f.  Brackets
    are only where the parse needs them, so no text that parses to f has
    fewer tokens.  A quantifier's body reaches as far right as the text
    does, so a quantifier is bracketed exactly when more text follows it."""

    def paren(child, tight, last):
        # `tight`: the node types bracketed here; `last`: nothing follows
        # the child in the whole rendering
        bracket = isinstance(child, tight) or (isinstance(child, Quant) and not last)
        return f"({render(child, True)})" if bracket else render(child, last)

    def render(f, last):
        if isinstance(f, Lit):
            return "true" if f.value else "false"
        if isinstance(f, Eq):
            return f"{f.a} = {f.b}"
        if isinstance(f, Edge):
            return f"E({f.a},{f.b})"
        if isinstance(f, DistLe):
            return f"dist({f.a},{f.b}) <= {f.d}"
        if isinstance(f, Pred):
            return f"P({f.a})"
        if isinstance(f, Not):
            if isinstance(f.body, DistLe):
                b = f.body
                return f"dist({b.a},{b.b}) > {b.d}"
            return "!" + paren(f.body, (And, Or), last)
        if isinstance(f, And):
            left = paren(f.left, Or, False)
            right = paren(f.right, (Or, And), last)
            return f"{left} & {right}"
        if isinstance(f, Or):
            left = paren(f.left, (), False)
            right = paren(f.right, Or, last)
            return f"{left} | {right}"
        if isinstance(f, Quant):
            rel = f" within {f.d} of {f.anchor}" if f.anchor is not None else ""
            return f"{f.kind} {f.var}{rel} . {render(f.body, last)}"
        raise TypeError(f"not a formula node: {f!r}")

    return render(f, True)


def free_vars(f) -> frozenset:
    if isinstance(f, Lit):
        return frozenset()
    if isinstance(f, (Eq, Edge, DistLe)):
        return frozenset({f.a, f.b})
    if isinstance(f, Pred):
        return frozenset({f.a})
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Quant):
        out = free_vars(f.body) - {f.var}
        if f.anchor is not None:
            out |= {f.anchor}
        return out
    raise TypeError(f"not a formula node: {f!r}")


# -------------------------------------------------------------- locality

def locality_violations(chi, var: str, r: int) -> list:
    """Syntactic r-locality around the free variable: every quantifier is
    relativized, nesting depths stay within r, and a distance atom's radius
    fits inside r from its shallower endpoint (so the atom means the same
    thing inside the induced r-ball as in the full graph)."""
    out = []

    def walk(f, depth):
        if isinstance(f, (Lit, Eq, Edge, Pred)):
            return
        if isinstance(f, DistLe):
            lo = min(depth.get(f.a, 0), depth.get(f.b, 0))
            if lo + f.d > r:
                out.append(
                    f"dist({f.a},{f.b}) <= {f.d} can leave the {r}-ball "
                    f"(depth {lo} + {f.d} > {r})")
            return
        if isinstance(f, Not):
            walk(f.body, depth)
            return
        if isinstance(f, (And, Or)):
            walk(f.left, depth)
            walk(f.right, depth)
            return
        if isinstance(f, Quant):
            if f.anchor is None:
                out.append(f"quantifier over {f.var} is not relativized")
                walk(f.body, {**depth, f.var: 0})
                return
            d = depth.get(f.anchor, 0) + f.d
            if d > r:
                out.append(
                    f"{f.var} ranges {d} deep, beyond the {r}-ball")
            walk(f.body, {**depth, f.var: d})
            return
        raise TypeError(f"not a formula node: {f!r}")

    walk(chi, {var: 0})
    return out


@dataclass(frozen=True)
class BasicLocalSentence:
    """Exists k vertices, pairwise at distance > 2r, each satisfying the
    r-local property chi (one free variable)."""
    k: int
    r: int
    chi: object
    var: str

    def __post_init__(self):
        if type(self.k) is not int or type(self.r) is not int:
            raise PreconditionError(
                f"k and r must be integers, got k={self.k!r}, r={self.r!r}")
        if self.k < 1 or self.r < 1:
            raise PreconditionError("need k >= 1 and r >= 1")
        if free_vars(self.chi) - {self.var}:
            raise FormulaScopeError(
                f"chi must have only {_shown(self.var)} free, has "
                f"{_shown_names(free_vars(self.chi))}")
        bad = locality_violations(self.chi, self.var, self.r)
        if bad:
            raise LocalityError("; ".join(bad))

    def to_json(self):
        return {"k": self.k, "r": self.r, "chi": to_text(self.chi)}

    @classmethod
    def from_json(cls, d):
        chi = parse_formula(d["chi"], free=None)
        fv = free_vars(chi)
        if len(fv) > 1:
            raise FormulaScopeError(f"chi has several free variables: {_shown_names(fv)}")
        var = min(fv, default="x")
        return cls(d["k"], d["r"], chi, var)


# ------------------------------------------------------------ evaluation

def eval_naive(g: Graph, f, env: dict, marked=frozenset()) -> bool:
    """Plain recursive FO semantics.  A distance atom and a relativized
    quantifier read the ball of the radius they name around a vertex, found
    by a BFS capped at that radius and kept for the call; no vertex is
    within a negative radius."""
    want = free_vars(f)
    if set(env) != want:
        raise PreconditionError(
            f"assignment covers {sorted(env)}, free variables are {sorted(want)}")
    bad = foreign_vertices(g, env.values())
    if bad:
        raise PreconditionError("; ".join(bad))
    balls = {}
    marked = frozenset(marked)

    def within(u, d):
        got = balls.get((u, d))
        if got is None:
            got = balls[u, d] = bfs_distances(g, (u,), d) if d >= 0 else {}
        return got

    def ev(f, env):
        if isinstance(f, Lit):
            return f.value
        if isinstance(f, Eq):
            return env[f.a] == env[f.b]
        if isinstance(f, Edge):
            return g.has_edge(env[f.a], env[f.b])
        if isinstance(f, DistLe):
            return env[f.b] in within(env[f.a], f.d)
        if isinstance(f, Pred):
            return env[f.a] in marked
        if isinstance(f, Not):
            return not ev(f.body, env)
        if isinstance(f, And):
            return ev(f.left, env) and ev(f.right, env)
        if isinstance(f, Or):
            return ev(f.left, env) or ev(f.right, env)
        if isinstance(f, Quant):
            domain = (sorted(within(env[f.anchor], f.d))
                      if f.anchor is not None else range(g.n))
            hits = (ev(f.body, {**env, f.var: v}) for v in domain)
            return any(hits) if f.kind == "exists" else all(hits)
        raise TypeError(f"not a formula node: {f!r}")

    return ev(f, env)


def satisfying_set(g: Graph, s: BasicLocalSentence, marked=frozenset()) -> frozenset:
    """T = the vertices whose induced r-ball satisfies chi.  By locality this
    equals evaluating chi directly on g."""
    out = set()
    needs_var = s.var in free_vars(s.chi)
    for v in range(g.n):
        sub, old_ids = induced_subgraph(g, ball(g, v, s.r))
        sub_marked = {i for i, o in enumerate(old_ids) if o in marked}
        env = {s.var: old_ids.index(v)} if needs_var else {}
        if eval_naive(sub, s.chi, env, sub_marked):
            out.add(v)
    return frozenset(out)


def eval_basic_local(g: Graph, s: BasicLocalSentence, marked=frozenset()):
    """(holds, witnesses): locality pipeline: compute the satisfying set by
    local evaluation, then look for k members pairwise at distance > 2r."""
    T = satisfying_set(g, s, marked)
    sol = distance_independent_set(g, 2 * s.r, s.k, T)
    return (True, tuple(sorted(sol))) if sol is not None else (False, None)


def _fresh(base: str, used: set) -> str:
    if base not in used:
        used.add(base)
        return base
    i = 2
    while f"{base}{i}" in used:
        i += 1
    used.add(f"{base}{i}")
    return f"{base}{i}"


def expand_basic_local(s: BasicLocalSentence):
    """The equivalent plain-FO sentence: exists x_1 .. x_k, pairwise
    dist > 2r, each satisfying chi with relativized quantifiers desugared
    into distance atoms.  Bound variables are renamed apart."""
    used = set()

    def collect(f):
        if isinstance(f, Quant):
            used.add(f.var)
            collect(f.body)
        elif isinstance(f, Not):
            collect(f.body)
        elif isinstance(f, (And, Or)):
            collect(f.left)
            collect(f.right)

    collect(s.chi)
    used |= {s.var}
    witnesses = [_fresh(f"x{i + 1}", used) for i in range(s.k)]

    def desugar(f, ren):
        if isinstance(f, Lit):
            return f
        if isinstance(f, Eq):
            return Eq(ren[f.a], ren[f.b])
        if isinstance(f, Edge):
            return Edge(ren[f.a], ren[f.b])
        if isinstance(f, DistLe):
            return DistLe(ren[f.a], ren[f.b], f.d)
        if isinstance(f, Pred):
            return Pred(ren[f.a])
        if isinstance(f, Not):
            return Not(desugar(f.body, ren))
        if isinstance(f, And):
            return And(desugar(f.left, ren), desugar(f.right, ren))
        if isinstance(f, Or):
            return Or(desugar(f.left, ren), desugar(f.right, ren))
        if isinstance(f, Quant):
            nv = _fresh(f.var, used)
            body = desugar(f.body, {**ren, f.var: nv})
            near = DistLe(nv, ren[f.anchor], f.d)
            if f.kind == "exists":
                return Quant("exists", nv, None, None, And(near, body))
            return Quant("forall", nv, None, None, Or(Not(near), body))
        raise TypeError(f"not a formula node: {f!r}")

    parts = []
    for i in range(s.k):
        for j in range(i + 1, s.k):
            parts.append(Not(DistLe(witnesses[i], witnesses[j], 2 * s.r)))
    for w in witnesses:
        parts.append(desugar(s.chi, {s.var: w}))
    body = parts[0]
    for p in parts[1:]:
        body = And(body, p)
    for w in reversed(witnesses):
        body = Quant("exists", w, None, None, body)
    return body


# ---------------------------------------------------------- exact solvers

# Largest k of distance_independent_set: its search recurses once per chosen
# vertex, so k stays well below the interpreter's recursion limit.
INDEPENDENT_K_CAP = 500


def distance_independent_set(g: Graph, r: int, k: int, candidates):
    """The lexicographically least k candidates pairwise at distance > r, or
    None: `least_independent` over the candidates' r-balls, a memoized
    search that branches on the least candidate."""
    if k < 0:
        raise PreconditionError(f"k must be >= 0, got {k}")
    if r < 0:
        raise PreconditionError(f"r must be >= 0, got {r}")
    if k > INDEPENDENT_K_CAP:
        raise CapabilityError(
            f"distance independent set capped at k = {INDEPENDENT_K_CAP}, got {k}",
            "independent_k", INDEPENDENT_K_CAP)
    candidates = tuple(candidates)
    if bad := foreign_vertices(g, candidates):
        raise PreconditionError("; ".join(bad))
    # masks[c] = the vertices within distance r of candidate c, c excluded;
    # candidate bits are vertex ids, so bit order is id order
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    masks = {c: mask_ball(adj, 1 << c, full, r)[0] ^ (1 << c) for c in candidates}
    sol = least_independent(masks, sum(1 << c for c in masks), k)
    return frozenset(sol) if sol is not None else None


def _greedy_domination(balls, r: int) -> list:
    """Greedy r-domination over the vertices' r-balls, given as vertex tuples.
    Each pick is the vertex of largest gain, ties by least id.  Lazy gains:
    a heap of (-gain, v) whose keys are upper bounds, since a vertex's gain
    only shrinks, so a top entry whose key is its current gain is that pick.
    Gains are kept current rather than recounted: w is in ball(x) exactly
    when x is in ball(w), so covering w lowers the gain of each x in
    ball(w).  Time and memory follow the balls' total size, not n squared."""
    gain = [len(b) for b in balls]
    heap = [(-k, v) for v, k in enumerate(gain)]
    heapq.heapify(heap)
    covered = [False] * len(balls)
    left, out = len(balls), []
    while left:
        key, v = heap[0]
        if gain[v] != -key:
            heapq.heapreplace(heap, (-gain[v], v))
            continue
        if not key:
            raise AlgorithmStallError(
                "uncoverable vertex", state={"r": r, "chosen": out})
        heapq.heappop(heap)
        out.append(v)
        for w in balls[v]:
            if not covered[w]:
                covered[w] = True
                left -= 1
                for x in balls[w]:
                    gain[x] -= 1
    return out


def distance_dominating_set(g: Graph, r: int, mode: str = "exact",
                            cap: int = 25) -> frozenset:
    """Minimum (exact) or greedy set D with every vertex within r of D."""
    if mode not in ("exact", "greedy"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if g.n == 0:
        return frozenset()
    if r < 0:
        raise PreconditionError(f"r must be >= 0, got {r}")
    if mode == "exact" and g.n > cap:
        raise CapabilityError(
            f"exact dominating set capped at {cap} vertices, got {g.n}",
            "dominating_cap", cap)
    balls = [tuple(bfs_distances(g, (v,), r)) for v in range(g.n)]
    if mode == "greedy":
        return frozenset(_greedy_domination(balls, r))

    masks = [sum(1 << w for w in b) for b in balls]
    full = (1 << g.n) - 1
    best = _greedy_domination(balls, r)

    def search(chosen, covered):
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        uncovered = full & ~covered
        max_gain = max((masks[v] & ~covered).bit_count() for v in range(g.n))
        need = -(-uncovered.bit_count() // max_gain)
        if len(chosen) + need >= len(best):
            return
        # first-fail: branch on the vertex with the fewest coverers
        u, u_opts = -1, None
        for v in iter_bits(uncovered):
            opts = list(iter_bits(masks[v]))  # balls are symmetric
            if u_opts is None or len(opts) < len(u_opts):
                u, u_opts = v, opts
        for w in sorted(u_opts,
                        key=lambda x: (-(masks[x] & ~covered).bit_count(), x)):
            search(chosen + [w], covered | masks[w])

    search([], 0)
    return frozenset(best)

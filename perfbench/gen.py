"""Seeded formula generator owned by the benchmark.

Formulas are plain tuples, so nothing here imports ``partlog``:

    ("atom", name)   ("0",)   ("1",)   ("not", a)
    (op, a, b)       op in join, meet, impl, nand, equiv

``to_text`` prints the partlog surface syntax; the program under test only
ever sees that text.  ``desugar`` mirrors the paper's definitions (~a is
a => 0, a <=> b is (a => b) /\\ (b => a)) so that ``nodes`` counts the
unique subformulas the evaluator works on.
"""

from __future__ import annotations

import random

ZERO = ("0",)
ONE = ("1",)
BINARY = ("join", "meet", "impl", "nand", "equiv")
_SYMBOL = {"join": "\\/", "meet": "/\\", "impl": "=>", "nand": "|",
           "equiv": "<=>"}


def atom(name: str) -> tuple:
    return ("atom", name)


def impl(a: tuple, b: tuple) -> tuple:
    return ("impl", a, b)


def to_text(f: tuple) -> str:
    """Surface syntax with every compound operand parenthesized."""
    def wrap(g):
        return "(" + to_text(g) + ")" if g[0] in BINARY else to_text(g)

    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind in ("0", "1"):
        return kind
    if kind == "not":
        return "~" + wrap(f[1])
    return "%s %s %s" % (wrap(f[1]), _SYMBOL[kind], wrap(f[2]))


def desugar(f: tuple) -> tuple:
    kind = f[0]
    if kind in ("atom", "0", "1"):
        return f
    if kind == "not":
        return impl(desugar(f[1]), ZERO)
    a, b = desugar(f[1]), desugar(f[2])
    if kind == "equiv":
        return ("meet", impl(a, b), impl(b, a))
    return (kind, a, b)


def subformulas(f: tuple) -> set:
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g not in out:
            out.add(g)
            if g[0] != "atom":
                stack.extend(g[1:])
    return out


def nodes(f: tuple) -> int:
    """Unique subformulas after desugaring."""
    return len(subformulas(desugar(f)))


def atoms_of(f: tuple) -> set[str]:
    return {g[1] for g in subformulas(f) if g[0] == "atom"}


def truth(f: tuple, env: dict[str, bool]) -> bool:
    kind = f[0]
    if kind == "atom":
        return env[f[1]]
    if kind in ("0", "1"):
        return kind == "1"
    if kind == "not":
        return not truth(f[1], env)
    a, b = truth(f[1], env), truth(f[2], env)
    return {"join": a or b, "meet": a and b, "impl": (not a) or b,
            "nand": not (a and b), "equiv": a == b}[kind]


def boolean_rows(names):
    """All 0/1 environments, first name varying slowest, False before True."""
    rows = [{}]
    for name in names:
        rows = [dict(r, **{name: v}) for r in rows for v in (False, True)]
    return rows


def first_falsifying_row(f: tuple) -> dict[str, bool] | None:
    for env in boolean_rows(sorted(atoms_of(f))):
        if not truth(f, env):
            return env
    return None


def is_tautology(f: tuple) -> bool:
    return first_falsifying_row(f) is None


def random_formula(rng: random.Random, depth: int, names, ops) -> tuple:
    """Atoms are twice as likely as each constant; binary nodes three times
    as likely as negation or an early leaf."""
    def leaf():
        return rng.choice([atom(rng.choice(names)), atom(rng.choice(names)),
                           ZERO, ONE])

    if depth == 0:
        return leaf()
    kind = rng.choice(("leaf", "not", "bin", "bin", "bin"))
    if kind == "leaf":
        return leaf()
    if kind == "not":
        return ("not", random_formula(rng, depth - 1, names, ops))
    return (rng.choice(ops), random_formula(rng, depth - 1, names, ops),
            random_formula(rng, depth - 1, names, ops))


# ---------------------------------------------------------------------------
# The paper's transforms of subset tautologies (desugared, nand-free input)
# ---------------------------------------------------------------------------

def _pi_subst(f: tuple, pi: tuple, on_atom) -> tuple:
    kind = f[0]
    if kind == "atom":
        return on_atom(f)
    if kind == "0":
        return pi
    if kind == "1":
        return ONE
    if kind in ("join", "meet", "impl"):
        return (kind, _pi_subst(f[1], pi, on_atom), _pi_subst(f[2], pi, on_atom))
    raise ValueError("transforms need a desugared nand-free formula")


def single_pi(f: tuple, pi: tuple) -> tuple:
    """Each atom x becomes x => pi, and 0 becomes pi."""
    return _pi_subst(f, pi, lambda a: impl(a, pi))


def double_pi(f: tuple, pi: tuple) -> tuple:
    """Each atom x becomes (x => pi) => pi, and 0 becomes pi."""
    return _pi_subst(f, pi, lambda a: impl(impl(a, pi), pi))


def godel(f: tuple, pi: tuple) -> tuple:
    """Atoms x become x \\/ pi, 0 becomes pi, join and implication map
    componentwise, and a meet becomes the meet of the double pi-negations of
    its transformed operands."""
    def neg2(g):
        return impl(impl(g, pi), pi)

    kind = f[0]
    if kind == "atom":
        return ("join", f, pi)
    if kind == "0":
        return pi
    if kind == "1":
        return ONE
    if kind in ("join", "impl"):
        return (kind, godel(f[1], pi), godel(f[2], pi))
    if kind == "meet":
        return ("meet", neg2(godel(f[1], pi)), neg2(godel(f[2], pi)))
    raise ValueError("transforms need a desugared nand-free formula")


def neg2_godel(f: tuple, pi: tuple) -> tuple:
    """The double pi-negation of the Goedel transform."""
    return impl(impl(godel(f, pi), pi), pi)

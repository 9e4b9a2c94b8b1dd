"""Exact evaluation of the explicit threshold formulas and recursions.

Each catalog formula is written once, against a number domain N, and runs
in two domains: exact (ints, where every product, power of two and ramsey
bound is checked against a digit budget before it is formed) and estimate
(the same operations on Mag, a power-tower magnitude that never blocks).
Evaluation is exact. When a subterm would exceed the digit budget it stops
with a structural report: which subterm blocked, a lazy expression tree,
and the estimate of the whole entry (not of the blocked subterm). The
estimate is presentational; the exact path never rounds. Where the domains
differ, the formula says so, and only the exact domain reports
intermediates.

Lemma identifiers name entries of the threshold catalog (T2.2 .. T6.2 and
"main"). Compositions that are assembled from several catalog entries
rather than a single closed formula are flagged derived_composition.
"""

import math
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import ThresholdTooLarge, _check_int, _keyword_args, _parameters

DEFAULT_DIGIT_LIMIT = 100_000
_LOG10_2 = math.log10(2.0)
_FLOAT_CAP = 1e15
_ESTIMATE_STEPS = 2000


def ramsey_bound(s, t):
    """An order forcing a clique of size s or a stable set of size t:
    the binomial bound C(s+t-2, s-1). Sufficient, not claimed minimal."""
    _check_int(s, "s", 1)
    _check_int(t, "t", 1)
    return math.comb(s + t - 2, s - 1)


def _log10_binom(n, k):
    """log10 C(n, k) through lgamma; n and k may be floats."""
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(10.0)


# ------------------------------------------------------- magnitude towers

class Mag:
    """Rough magnitude as a power tower: height h over top value x stands
    for 10^(10^(...^x)) with h exponentiations. Only for display when the
    exact integer is out of reach; arithmetic here is deliberately coarse
    at great heights.

    ``+`` is add, ``Mag * x`` is mul, ``int * Mag`` is mul_const (scaling by
    a positive constant), and comparisons order by (h, x).

    Every method reads only h and x, and no Mag is changed after __init__,
    so two Mags with equal (h, x) behave identically. __init__ leaves x below
    _FLOAT_CAP and, at h > 0, x >= 15 or 10^x >= _FLOAT_CAP; Mag(h, x) of
    such a pair at h > 0 is that pair unchanged. The fast paths below rest on
    this."""

    __slots__ = ("h", "x")

    def __init__(self, h, x):
        while x >= _FLOAT_CAP:
            x = math.log10(x)
            h += 1
        while h > 0 and x < 15.0:
            nx = 10.0 ** x
            if nx >= _FLOAT_CAP:
                break
            x = nx
            h -= 1
        self.h = h
        self.x = x

    @staticmethod
    def of(value):
        if type(value) is Mag:
            return value
        v = int(value)
        if v < 0:
            raise ValueError("magnitudes are non-negative")
        bl = v.bit_length()
        if bl <= 50:
            return Mag(0, float(v))
        return Mag(1, bl * _LOG10_2)

    def key(self):
        return (self.h, self.x)

    def log10(self):
        if self.h >= 1:
            return Mag(self.h - 1, self.x)
        return Mag(0, math.log10(self.x) if self.x > 1 else 0.0)

    def exp10(self):
        return Mag(self.h + 1, self.x)

    def add(self, other):
        other = Mag.of(other)
        if self.h != other.h:
            return self if self.h > other.h else other
        if self.h == 0:
            return Mag(0, self.x + other.x)
        return self if self.x >= other.x else other

    def mul(self, other):
        other = Mag.of(other)
        if self.h >= 2 or other.h >= 2:
            # The general path below gives the larger operand by (h, x),
            # self on a tie. Say self.h >= 2: self.log10() is (h - 1, x) at
            # height >= 1, which add compares by (h, x) with other.log10().
            # That is (other.h - 1, other.x) when other.h >= 1 and sits at
            # height 0 otherwise, so the larger log belongs to the larger
            # operand, and exp10 of (h - 1, x) at h - 1 >= 1 gives back (h, x)
            # unchanged. The case other.h >= 2 is the same with roles swapped.
            return other if other > self else self
        if self.h == 0 and other.h == 0 and self.x * other.x < _FLOAT_CAP:
            return Mag(0, self.x * other.x)
        return self.log10().add(other.log10()).exp10()

    def mul_const(self, c):
        if c <= 0:
            raise ValueError("constants here are positive")
        if self.h == 0:
            return Mag(0, self.x * c)
        if self.h == 1:
            return Mag(1, self.x + math.log10(c))
        return self

    __add__ = __radd__ = add
    __mul__ = mul
    __rmul__ = mul_const

    def __lt__(self, other):
        other = Mag.of(other)
        if self.h != other.h:
            return self.h < other.h
        return self.x < other.x

    def __gt__(self, other):
        other = Mag.of(other)
        if self.h != other.h:
            return self.h > other.h
        return self.x > other.x

    def __str__(self):
        if self.h == 0:
            return f"about {self.x:.4g}"
        if self.h == 1:
            return f"about 10^{self.x:.4g}"
        if self.h == 2:
            return f"about 10^(10^{self.x:.4g})"
        return f"about a power tower of height {self.h} topped by {self.x:.4g}"


# ----------------------------------------------------------- number domains
#
# A formula sees its domain as N: N.mul(a, b, where), N.pow2(e, where) and
# N.ramsey(s, t, where) are the operations the exact domain budgets; where
# names the subterm that blocks. N.reuse(formula, *args) is formula(N, *args);
# the estimate domain computes it once per distinct arguments within one
# evaluation. Everything else is plain +, * and max.

class _Exact:
    """Ints under a digit budget."""

    exact = True
    zero = 0

    def __init__(self, digit_limit):
        self.digits = digit_limit

    def _check(self, bits, where):
        if bits * _LOG10_2 > self.digits:
            raise ThresholdTooLarge(where)

    def mul(self, a, b, where):
        self._check(a.bit_length() + b.bit_length(), where)
        return a * b

    def pow2(self, e, where):
        self._check(e, where)
        return 1 << e

    def ramsey(self, s, t, where):
        n, k = s + t - 2, s - 1
        if n > 1e12 or (n > 1 and _log10_binom(n, k) > self.digits):
            raise ThresholdTooLarge(where)
        return ramsey_bound(s, t)

    def reuse(self, formula, *args):
        # no memo: an exact evaluation runs once, and hashing ints of up to
        # 100,000 digits would cost time
        return formula(self, *args)


class _Estimate:
    """Magnitudes; nothing blocks. One instance serves one evaluation, and
    its memo goes with it."""

    exact = False
    zero = Mag(0, 0.0)

    def __init__(self):
        self.memo = {}

    def reuse(self, formula, *args):
        # A Mag is keyed by its (h, x), which fixes its behaviour, and an int
        # by type and value, so 1, 1.0, True and Mag(0, 1.0) stay apart.
        key = (formula, *[(Mag, a.h, a.x) if type(a) is Mag else (type(a), a) for a in args])
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = formula(self, *args)
        return value

    @staticmethod
    def mul(a, b, where):
        return Mag.of(a).mul(b)

    @staticmethod
    def pow2(e, where):
        return Mag.of(e).mul_const(_LOG10_2).exp10()

    @staticmethod
    def ramsey(s, t, where):
        s, t = Mag.of(s), Mag.of(t)
        if s.h == 0 and t.h == 0 and s.x + t.x < 1e12:
            n = max(s.x + t.x - 2.0, 0.0)
            k = min(max(s.x - 1.0, 0.0), n)
            if n <= 1:
                return Mag(0, 1.0)
            return Mag(1, _log10_binom(n, k))
        # a huge argument: C(n, k) is bounded above by 2^n, the right scale here
        return _Estimate.pow2(s.add(t), where)


# Parameters the estimate domain carries as Mag. The others (k, d, n, r, s,
# ks, kappa) stay ints in both domains: they set loop counts and constants,
# and N.mul or a Mag operand converts them where they enter a product.
_MAG_PARAMS = ("a", "b", "c", "tau")


# -------------------------------------------------------------- formulas

def _t22(N, c, tau):
    return N.mul(2 * c + 3 * tau + 3, tau, "T2.2")


def _t23(N, d, tau):
    return _t22(N, N.mul(d, tau, "T2.3"), tau)


def _t25(N, d, tau):
    # the exact ramsey bound needs d >= 1; the estimate takes any d
    r = N.ramsey(tau + 1, d, "T2.5 ramsey") if not N.exact or d >= 1 else 0
    return max(r, _t23(N, d, tau))


def _t26(N, a, d, tau):
    return N.mul(a, _t25(N, d, tau), "T2.6")


def _t27(N, a, b, d, tau):
    dh = max(d, b + 1)
    c1 = _t26(N, tau, dh, tau)
    return _t26(N, c1 + a + b, dh, tau), {"d_hat": dh, "c1": c1}


def _t31(N, k, d, tau):
    seq = [2 * tau]
    for _ in range(2, k + 1):
        prev = seq[-1]
        seq.append(max(N.mul(2 * d, prev, "T3.1"), 2 * _t26(N, prev, d, tau)))
    return seq[-1], {"c_sequence": seq if len(seq) <= 64 else [seq[0], seq[-1]]}


def _t32(N, c, tau, d, k):
    c1, _ = N.reuse(_t31, k, d, tau)
    return N.mul((2 * k + 2 * d + 3) * tau + c + c1, tau, "T3.2"), {"c1": c1}


def _t33(N, r, s, d, ks, tau):
    if r == 1:
        return tau
    c1 = _t33(N, r - 1, s, d, ks, tau)
    c2 = 0 if s == 1 else _t33(N, r, s - 1, d, ks[:-1], tau)
    c3, _ = _t32(N, c2, c1, d, ks[-1])
    return c1 + c3


def _t41(N, k, d, tau):
    m = 2 * d * d
    n = N.ramsey(tau + 1, m, "T4.1 ramsey")
    c0 = _t26(N, tau, d, tau)
    a = (m + 1) * tau + c0
    if k >= 2:
        c, inner = _t27(N, a, 0, d, tau)
    else:
        mn = N.mul(m, n, "T4.1")
        c, inner = _t27(N, a, mn, d + mn, tau)
    return c, {"m": m, "n": n, "c0": c0, **inner}


def _t42(N, k, d, tau):
    c0, inter = _t41(N, k, d, tau)
    n = d * inter["n"]
    big = N.mul(N.pow2(N.mul(n, n, "T4.2 exponent"), "T4.2"), c0, "T4.2")
    return max(big, _t26(N, tau, d, tau)), {"n": n, "c0": c0}


# d may be 0 in T5.1 and T5.2, so the products are written tau * d:
# int * Mag only scales by a positive constant.

def _t51(N, c, d, tau):
    return 2 * max(c, tau) + tau * d + 1


def _t52(N, n, c, d, tau):
    """Iterate x -> T5.1(d*tau + x, d, tau) n times. Once d*tau + x >= tau
    the step is affine (x -> 2x + 3*d*tau + 1) and the remaining iterations
    collapse to one closed form, which is the identical value. The estimate
    applies the closed form from the start and leaves out its "- beta"."""
    x, seq = c, [c]
    if N.exact:
        while len(seq) <= n and tau * d + x < tau:
            x = _t51(N, tau * d + x, d, tau)
            seq.append(x)
        n -= len(seq) - 1
    if n:
        beta = 3 * (tau * d) + 1
        x = N.mul(N.pow2(n, "T5.2"), x + beta, "T5.2")
        if N.exact:
            x -= beta
        seq.append(x)
    return x, {"c_sequence": seq}


def _t53(N, k, d, tau):
    c4, inter = _t42(N, k, d, tau)
    c, _ = _t52(N, inter["n"], c4, d, tau)
    return c, {"cathedral_c": c4, "cathedral_n": inter["n"]}


def _t61(N, c, d, tau):
    x = c
    for _ in range(d):
        x, _ = _t32(N, x, tau, d, d)
    return x


def _t62(N, d, tau):
    cprime, inter = _t41(N, 1, d, tau)
    n0 = inter["n"]
    n = (2 * d + 1) * n0
    x = max(N.mul(cprime, N.pow2(N.mul(n, n, "T6.2 exponent"), "T6.2"), "T6.2"), tau * d)
    start = x
    if N.exact:
        steps = n
    else:  # the estimate takes at most 2000 steps
        cap = _ESTIMATE_STEPS
        steps = min((2 * d + 1) * int(n0.x), cap) if n0.h == 0 and n0.x <= cap else cap
    for _ in range(steps):
        before = x
        x, _ = _t53(N, 1, d, _t61(N, x, d, tau))
        if not N.exact and x.h > 60 and x.key() == before.key():
            break  # a tall estimate that stopped moving
    return x, {"n": n, "n0": n0, "free_cathedral_c": cprime, "c_n": start}


def _main(N, kappa, k, d):
    if kappa == 0:
        return N.zero, {"tau": N.zero}
    tau1, _ = _main(N, kappa - 1, k, d)
    leg = max(d - 1, k)
    tau = max(tau1, _t33(N, k, d + 1, d, [leg] * d + [k], tau1))
    c1, _ = _t53(N, k, d, tau)
    c2, _ = _t62(N, d, tau1)
    return max(c1, c2), {"tau": tau, "tau_prev": tau1, "c_starry": c1, "c_radius_one": c2}


# --------------------------------------------------------------- registry

@dataclass
class ThresholdResult:
    lemma_id: str
    params: dict
    value: int | None
    intermediates: dict = field(default_factory=dict)
    derived_composition: bool = False
    magnitude: str | None = None
    blocked_at: str | None = None
    expr: dict | None = None


# id -> (formula, recipe, derived flag, lowest allowed value of each
# bounded parameter). A lemma's parameters are its formula's parameters
# after N. T3.3's constraints tie r and s to ks and are checked in
# lemma_threshold.
_CATALOG = {
    "T2.2": (_t22, "single stable-set split bound: (2c + 3 tau + 3) tau", False, {}),
    "T2.3": (_t23, "split with a long path: T2.2(d tau, tau)", False, {}),
    "T2.5": (_t25, "stable-set equipment: max(ramsey(tau+1, d), T2.3(d, tau))", False, {}),
    "T2.6": (_t26, "bounded-chromatic equipment: a * T2.5(d, tau)", False, {}),
    "T2.7": (
        _t27, "paired equipment with forbidden set: d^ = max(d, b+1); T2.6(T2.6(tau, d^, tau) + a + b, d^, tau)",
        False, {},
    ),
    "T3.1": (
        _t31, "rooted broom and bristle: c_1 = 2 tau; c_i = max(2 d c_{i-1}, 2 T2.6(c_{i-1}, d, tau)); value c_k",
        False, {"k": 1, "d": 1},
    ),
    "T3.2": (_t32, "tree split: ((2k + 2d + 3) tau + c + T3.1(k, d, tau)) tau", False, {"k": 1, "d": 1}),
    "T3.3": (
        _t33, "rooted sum: r=1 -> tau; else c1 = rec(r-1), c2 = rec(s-1), value c1 + T3.2(c2, c1, d, k_s)",
        True, {},  # the bracketing of the double recursion is reconstructed
    ),
    "T4.1": (
        _t41, "free cathedral: m = 2 d^2, n = ramsey(tau+1, m), c0 = T2.6(tau, d, tau); "
        "k>=2: T2.7((m+1) tau + c0, 0, d, tau); k=1: T2.7((m+1) tau + c0, m n, d + m n, tau)",
        False, {"d": 1, "k": 1},
    ),
    "T4.2": (
        _t42, "cathedral: (c0, n0) = T4.1(k, d, tau); n = d n0; c = max(2^(n^2) c0, T2.6(tau, d, tau))",
        False, {"d": 1, "k": 1},
    ),
    "T5.1": (_t51, "single spire: 2 max(c, tau) + d tau + 1", False, {}),
    "T5.2": (
        _t52, "cathedral construction: c_n = c; c_i = T5.1(d tau + c_{i+1}, d, tau); value c_0",
        True, {},  # iterated composition of the single-spire bound
    ),
    "T5.3": (
        _t53, "starriness from bounded balls of radius two: T5.2(n, c, d, tau) with (c, n) = T4.2(k, d, tau)",
        True, {"d": 1, "k": 1},
    ),
    "T6.1": (_t61, "superstar split: d-fold composition x -> T3.2(x, tau, d, d) starting at c", True, {"d": 1}),
    "T6.2": (
        _t62, "radius-one starriness: (c', n0) = T4.1(1, d, tau); n = (2d+1) n0; "
        "c_n = max(c' 2^(n^2), d tau); c_i = T5.3(1, d, T6.1(c_{i+1}, d, tau)); value c_0",
        True, {"d": 1},
    ),
    "main": (
        _main, "induction on the clique bound: tau from T3.3 over the rooted-sum decompositions, "
        "then max(T5.3(k, d, tau), T6.2(d, tau_prev))",
        True, {"d": 1, "k": 1},
    ),
}

# id -> (parameter names in order, formula recipe, derived flag), a view of
# _CATALOG for callers that list the catalog
LEMMAS = {
    lemma_id: (tuple(_parameters(formula, 1)), recipe, derived)
    for lemma_id, (formula, recipe, derived, _) in _CATALOG.items()
}


def _evaluate(formula, N, args):
    """(value, intermediates); a formula without named intermediates
    returns its value alone."""
    out = formula(N, **args)
    return out if isinstance(out, tuple) else (out, {})


def lemma_threshold(lemma_id, params, digit_limit=DEFAULT_DIGIT_LIMIT):
    """Evaluate one catalog entry exactly.

    params maps each parameter of the entry's formula, and nothing else, to
    a non-negative integer; T3.3's ks is a list of s such integers. A key
    the formula does not take, a missing parameter, a value below its
    minimum or a digit_limit that is not a positive integer is a
    ValueError. result.params holds the parameters in the formula's order.
    When the exact integer would exceed digit_limit decimal digits the
    result carries value None, the blocking subterm, and a tower-magnitude
    estimate of the whole entry instead.
    """
    if lemma_id not in _CATALOG:
        raise ValueError(f"unknown lemma id {lemma_id!r}; known: {', '.join(sorted(_CATALOG))}")
    _check_int(digit_limit, "digit_limit", 1)
    formula, recipe, derived, minimums = _CATALOG[lemma_id]
    args = _keyword_args(formula, params, f"{lemma_id} lemma", skip=1)
    for p, v in args.items():
        if p != "ks":
            _check_int(v, f"parameter {p}", minimums.get(p, 0))
        elif isinstance(v, (list, tuple)):
            args[p] = [_check_int(x, "parameter ks entry") for x in v]
        else:
            raise ValueError(f"parameter ks must be a list of non-negative integers, got {v!r}")

    if lemma_id == "T3.3":
        r, s, ks = args["r"], args["s"], args["ks"]
        if s < 1 or len(ks) != s:
            raise ValueError(f"T3.3 needs s >= 1 and len(ks) == s, got s={s}, ks={ks}")
        if r < 1 or (ks and r > min(ks)):
            raise ValueError(f"T3.3 needs 1 <= r <= min(ks), got r={r}, ks={ks}")

    result = ThresholdResult(
        lemma_id=lemma_id,
        params=args,
        value=None,
        derived_composition=derived,
        expr={"lemma": lemma_id, "recipe": recipe, "params": dict(args)},
    )
    try:
        result.value, result.intermediates = _evaluate(formula, _Exact(digit_limit), args)
    except ThresholdTooLarge as e:
        result.blocked_at = e.where
        lifted = {p: Mag.of(v) if p in _MAG_PARAMS else v for p, v in args.items()}
        result.magnitude = str(_evaluate(formula, _Estimate(), lifted)[0])
        result.expr["blocked_at"] = e.where
    return result


def format_value(value, decimal_digit_cap=10_000, lead=40):
    """Decimal when small enough, otherwise digit count and leading digits.

    value is a non-negative int of any length. Neither form goes through
    str(int), which CPython refuses beyond 4300 digits by default, and the
    second form converts only the leading digits."""
    n = int(value.bit_length() * _LOG10_2)  # the digit count, or one less
    if n >= decimal_digit_cap:
        shift = max(n - lead, 0)
        head = str(value // 10 ** shift)
        digits = shift + len(head)
        if digits > decimal_digit_cap:
            return f"<{digits} digits: {head[:lead]}...>"
    return str(Decimal(value))


def _format_param(v):
    return f"[{', '.join(map(format_value, v))}]" if isinstance(v, list) else format_value(v)


def format_result(result):
    try:
        params = ", ".join(f"{k}={v}" for k, v in result.params.items())
    except ValueError:  # str() refuses ints past CPython's 4300-digit limit
        params = ", ".join(f"{k}={_format_param(v)}" for k, v in result.params.items())
    lines = [f"{result.lemma_id}({params})"]
    if result.derived_composition:
        lines.append("  note: derived composition (assembled from referenced entries)")
    if result.value is not None:
        lines.append(f"  value: {format_value(result.value)}")
    else:
        lines.append(f"  value: exact evaluation blocked at {result.blocked_at}")
        lines.append(f"  magnitude: {result.magnitude}")
    for name, v in result.intermediates.items():
        if isinstance(v, list):
            shown = ", ".join(format_value(x, 40, 20) for x in v)
            lines.append(f"  {name}: [{shown}]")
        else:
            lines.append(f"  {name}: {format_value(v, 120, 40)}")
    if result.expr is not None:
        lines.append(f"  recipe: {result.expr['recipe']}")
    return "\n".join(lines)

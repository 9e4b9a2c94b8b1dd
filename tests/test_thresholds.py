import hashlib
import json
import math
import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceEstimate, ReferenceMag, all_graphs, has_stable_set, has_triangle

from chibound.generators import cycle_graph
from chibound.thresholds import (
    DEFAULT_DIGIT_LIMIT,
    LEMMAS,
    Mag,
    _Estimate,
    format_result,
    format_value,
    lemma_threshold,
    ramsey_bound,
)


def val(lemma, **params):
    return lemma_threshold(lemma, params).value


def test_ramsey_bound():
    assert ramsey_bound(1, 7) == 1
    assert ramsey_bound(2, 2) == 2
    assert ramsey_bound(3, 3) == 6
    assert ramsey_bound(4, 4) == 20
    for s in range(1, 6):
        for t in range(1, 6):
            assert ramsey_bound(s, t) == ramsey_bound(t, s)
    with pytest.raises(ValueError):
        ramsey_bound(0, 3)


def test_ramsey_three_three_sharp():
    # five vertices do not force a triangle or a stable triple
    c5 = cycle_graph(5)
    assert not has_triangle(c5) and not has_stable_set(c5, 3)
    # six vertices always do (exhaustive over all labeled graphs)
    for g in all_graphs(6):
        assert has_triangle(g) or has_stable_set(g, 3)


def test_spot_values():
    assert val("T2.2", c=0, tau=1) == 6
    assert val("T5.1", c=1, d=1, tau=1) == 4
    assert val("T3.2", c=0, tau=0, d=3, k=2) == 0
    assert val("T2.3", d=1, tau=1) == 8
    assert val("T2.5", d=1, tau=1) == 8
    assert val("T2.6", a=2, d=1, tau=1) == 16
    # hand evaluation: d_hat = 3, c1 = T2.6(1,3,1) = 12, then (12+1+2)*12
    r = lemma_threshold("T2.7", {"a": 1, "b": 2, "d": 1, "tau": 1})
    assert r.intermediates == {"d_hat": 3, "c1": 12} and r.value == 15 * 12
    # T3.1: c1 = 2, c2 = max(2*1*2, 2*T2.6(2,1,1)) = max(4, 32) = 32
    assert val("T3.1", k=2, d=1, tau=1) == 32
    assert val("T3.3", r=1, s=1, d=1, ks=[1], tau=7) == 7


def test_t41_t42_hand_values():
    r = lemma_threshold("T4.1", {"k": 1, "d": 1, "tau": 1})
    assert r.intermediates["m"] == 2 and r.intermediates["n"] == 2
    assert r.intermediates["c0"] == 8
    assert r.value == 496
    r2 = lemma_threshold("T4.2", {"k": 1, "d": 1, "tau": 1})
    assert r2.intermediates["n"] == 2
    assert r2.value == (1 << 4) * 496


def test_t52_matches_naive_iteration():
    def naive(n, c, d, tau):
        x = c
        for _ in range(n):
            x = 2 * max(d * tau + x, tau) + d * tau + 1
        return x

    for n in range(0, 12):
        for c in (0, 1, 5):
            for d in (0, 1, 2):
                for tau in (0, 1, 3):
                    assert val("T5.2", n=n, c=c, d=d, tau=tau) == naive(n, c, d, tau)


def test_t6_and_main_small_exact():
    # one application of the tree-split formula: (7 + 0 + 2) * 1
    assert val("T6.1", c=0, d=1, tau=1) == 9
    assert val("T6.2", d=1, tau=0) == 9
    assert val("main", kappa=0, k=1, d=1) == 0
    r = lemma_threshold("main", {"kappa": 1, "k": 1, "d": 1})
    assert r.value == 9 and r.derived_composition


def test_symbolic_fallback_for_huge_values():
    r = lemma_threshold("T6.2", {"d": 1, "tau": 1})
    assert r.value is None
    assert r.blocked_at is not None
    assert r.magnitude is not None and ("10^" in r.magnitude or "tower" in r.magnitude)
    assert r.expr["blocked_at"] == r.blocked_at
    r2 = lemma_threshold("main", {"kappa": 2, "k": 1, "d": 1})
    assert r2.value is None and "tower" in r2.magnitude


def test_digit_limit_is_respected():
    full = lemma_threshold("T4.2", {"k": 2, "d": 2, "tau": 2})
    assert full.value is not None and len(str(full.value)) > 1000
    tight = lemma_threshold("T4.2", {"k": 2, "d": 2, "tau": 2}, digit_limit=100)
    assert tight.value is None and tight.magnitude is not None


def test_monotone_in_each_parameter():
    grids = {
        "T2.2": {"c": range(4), "tau": range(4)},
        "T2.3": {"d": range(1, 4), "tau": range(4)},
        "T2.5": {"d": range(1, 4), "tau": range(4)},
        "T2.6": {"a": range(3), "d": range(1, 4), "tau": range(3)},
        "T2.7": {"a": range(3), "b": range(3), "d": range(1, 3), "tau": range(3)},
        "T3.1": {"k": range(1, 4), "d": range(1, 3), "tau": range(3)},
        "T3.2": {"c": range(3), "tau": range(3), "d": range(1, 3), "k": range(1, 3)},
        # k selects between the two cases; within k >= 2 the value is
        # constant, and the k = 1 case dominates (checked separately)
        "T4.1": {"k": range(2, 4), "d": range(1, 3), "tau": range(3)},
        "T4.2": {"k": range(2, 4), "d": range(1, 3), "tau": range(2)},
        "T5.1": {"c": range(4), "d": range(3), "tau": range(3)},
        "T5.2": {"n": range(4), "c": range(3), "d": range(2), "tau": range(3)},
        "T5.3": {"k": range(2, 4), "d": range(1, 3), "tau": range(2)},
        "T6.1": {"c": range(3), "d": range(1, 3), "tau": range(3)},
    }
    for lemma, grid in grids.items():
        names = list(grid)
        from itertools import product

        for point in product(*(grid[n] for n in names)):
            base = dict(zip(names, point))
            v0 = lemma_threshold(lemma, base).value
            assert v0 is not None, (lemma, base)
            for bump in names:
                nxt = dict(base)
                nxt[bump] = nxt[bump] + 1
                v1 = lemma_threshold(lemma, nxt).value
                assert v1 is not None and v1 >= v0, (lemma, base, bump, v0, v1)


def test_case_split_dominance():
    # the forbidden-set case (k = 1) always needs at least the plain case
    for d in range(1, 3):
        for tau in range(3):
            assert val("T4.1", k=1, d=d, tau=tau) >= val("T4.1", k=2, d=d, tau=tau)


def test_composition_dominance():
    for tau in range(4):
        for d in range(1, 4):
            assert val("T2.3", d=d, tau=tau) >= val("T2.2", c=0, tau=tau)
            for a in range(1, 4):
                assert val("T2.6", a=a, d=d, tau=tau) >= val("T2.5", d=d, tau=tau)


def test_t33_parameter_validation():
    with pytest.raises(ValueError):
        lemma_threshold("T3.3", {"r": 2, "s": 1, "d": 1, "ks": [1], "tau": 1})
    with pytest.raises(ValueError):
        lemma_threshold("T3.3", {"r": 1, "s": 2, "d": 1, "ks": [1], "tau": 1})
    assert val("T3.3", r=2, s=2, d=1, ks=[2, 3], tau=1) > 0


def test_unknown_lemma_and_missing_params():
    with pytest.raises(ValueError):
        lemma_threshold("T9.9", {})
    with pytest.raises(ValueError):
        lemma_threshold("T2.2", {"c": 1})
    with pytest.raises(ValueError):
        lemma_threshold("T2.2", {"c": -1, "tau": 1})
    # a key the formula does not take is refused by name, not dropped
    with pytest.raises(ValueError, match="tua"):
        lemma_threshold("T2.2", {"c": 0, "tau": 1, "tua": 5})
    # T3.3's ks is a list; a bare integer is bad input, not a TypeError
    with pytest.raises(ValueError, match="parameter ks must be a list"):
        lemma_threshold("T3.3", {"r": 1, "s": 1, "d": 1, "ks": 1, "tau": 1})
    for limit in (0, -5, None, 2.5):
        with pytest.raises(ValueError, match="digit_limit must be a positive integer"):
            lemma_threshold("T2.2", {"c": 0, "tau": 1}, digit_limit=limit)


def test_format_helpers():
    assert format_value(123) == "123"
    big = 10 ** 50
    assert "digits" in format_value(big, decimal_digit_cap=10)
    out = format_result(lemma_threshold("T2.2", {"c": 0, "tau": 1}))
    assert "value: 6" in out
    assert str(Mag.of(10 ** 40)).startswith("about 10^40")


def test_format_result_blocked_and_list_intermediates():
    r = lemma_threshold("T6.2", {"d": 1, "tau": 1})
    assert format_result(r).splitlines()[1:4] == [
        "  note: derived composition (assembled from referenced entries)",
        f"  value: exact evaluation blocked at {r.blocked_at}",
        f"  magnitude: {r.magnitude}",
    ]
    text = format_result(lemma_threshold("T3.1", {"k": 3, "d": 1, "tau": 1}))
    assert text.splitlines()[1:3] == ["  value: 512", "  c_sequence: [2, 32, 512]"]


def test_format_past_int_str_limit():
    # str() refuses ints beyond 4300 digits by default; this value has 17357
    r = lemma_threshold("T4.2", {"k": 1, "d": 2, "tau": 3})
    m = re.search(r"value: <(\d+) digits: (\d{40})\.\.\.>", format_result(r))
    digits, head = int(m[1]), int(m[2])
    assert 10 ** (digits - 1) <= r.value < 10 ** digits
    assert r.value // 10 ** (digits - 40) == head
    # below the decimal cap, a value past the str() limit prints in full
    v = 7 ** 6000
    full = format_value(v)
    assert len(full) == 5071 and Decimal(full) == v


def test_format_parameter_past_int_str_limit():
    # 5001-digit parameters, also inside a list, print through format_value
    c = 10 ** 5000
    text = format_result(lemma_threshold("T5.1", {"c": c, "d": 1, "tau": 1}))
    assert text.splitlines()[0] == f"T5.1(c={format_value(c)}, d=1, tau=1)"
    assert format_value(c) == "1" + "0" * 5000
    text = format_result(lemma_threshold("T3.3", {"r": 1, "s": 1, "d": 1, "ks": [c], "tau": 1}))
    assert text.splitlines()[0] == f"T3.3(r=1, s=1, d=1, ks=[{format_value(c)}], tau=1)"


# ------------------------------------------------ magnitude arithmetic

# Top values near the normalisation bounds of Mag: 15 at heights >= 1 and
# the float cap 1e15, where __init__ takes or drops a level.
_TOP = st.one_of(
    st.sampled_from([0.0, 1.0, 15.0, math.nextafter(15.0, 0.0), math.nextafter(15.0, 16.0),
                     1e15, math.nextafter(1e15, 0.0)]),
    st.floats(14.999, 15.001),
    st.floats(0.999e15, 1.001e15),
    st.floats(0.0, 1e15),
)
# Ints around Mag.of's switch from height 0 to height 1 at 2^50 bits.
_INTS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(2**50 - 8, 2**50 + 8),
    st.integers(0, 2**60),
    st.integers(0, 4000).map(lambda e: 1 << e),
)
_OPERANDS = st.one_of(st.tuples(st.integers(0, 5), _TOP), _INTS)
_CONSTANTS = st.sampled_from([0, 1, 2, 3, 0.5, math.log10(2.0), 10**6])

_MAG_OPS = {
    "of": lambda M, E, a, b, c: M.of(b),
    "add": lambda M, E, a, b, c: M.of(a).add(b),
    "radd": lambda M, E, a, b, c: b + M.of(a),
    "mul": lambda M, E, a, b, c: M.of(a) * b,
    "mul_const": lambda M, E, a, b, c: c * M.of(a),
    "log10": lambda M, E, a, b, c: M.of(a).log10(),
    "exp10": lambda M, E, a, b, c: M.of(a).exp10(),
    "lt": lambda M, E, a, b, c: M.of(a) < b,
    "gt": lambda M, E, a, b, c: M.of(a) > b,
    "reflected lt": lambda M, E, a, b, c: b < M.of(a),
    "max": lambda M, E, a, b, c: max(M.of(a), b),
    "estimate mul": lambda M, E, a, b, c: E.mul(a, b, "w"),
    "estimate pow2": lambda M, E, a, b, c: E.pow2(a, "w"),
    "estimate ramsey": lambda M, E, a, b, c: E.ramsey(a, b, "w"),
}


def _outcome(op, mag_type, estimate, a, b, c):
    """What op gives in one implementation: a Mag of that implementation as
    ("Mag", h, repr(x)), another value as (type name, value), or the
    ValueError it raises."""
    try:
        out = _MAG_OPS[op](mag_type, estimate, a, b, c)
    except ValueError as e:
        return ("ValueError", str(e))
    if type(out) is mag_type:
        return ("Mag", type(out.h).__name__, out.h, repr(out.x))
    return (type(out).__name__, out)


def _both(operand):
    """The operand for Mag and for ReferenceMag: an (h, x) pair becomes a
    Mag of each kind, an int stays an int."""
    if isinstance(operand, tuple):
        return Mag(*operand), ReferenceMag(*operand)
    return operand, operand


def test_estimate_reuse_keys_by_value():
    N = _Estimate()
    calls = []

    def formula(N, *args):
        calls.append(args)
        return Mag(0, float(len(calls)))

    first = N.reuse(formula, Mag(3, 20.0), 2)
    assert N.reuse(formula, Mag(3, 20.0), 2) is first  # another Mag, same (h, x)
    for args in ((Mag(0, 1.0), 2), (1, 2), (True, 2), (1.0, 2), (Mag(3, 20.0), 3)):
        N.reuse(formula, *args)
    assert len(calls) == 6
    assert _Estimate().memo == {}


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_OPERANDS, _OPERANDS, _CONSTANTS)
def test_mag_matches_reference_arithmetic(a, b, c):
    (new_a, ref_a), (new_b, ref_b) = _both(a), _both(b)
    for op in _MAG_OPS:
        new = _outcome(op, Mag, _Estimate(), new_a, new_b, c)
        ref = _outcome(op, ReferenceMag, ReferenceEstimate, ref_a, ref_b, c)
        assert new == ref, (op, a, b, c)


# ------------------------------------------------------- catalog snapshot

SNAPSHOT = Path(__file__).with_name("threshold_snapshot.json")
SNAPSHOT_LIMITS = (5, 50, DEFAULT_DIGIT_LIMIT)
HUGE = 10 ** 400
# Every lemma id blocks on some point at top level, except T5.1, which has
# no budgeted operation. Small digit limits block early, large parameters
# reach tower heights 1 to 3.
SNAPSHOT_GRID = {
    "T2.2": [{"c": 0, "tau": 1}, {"c": 10**6, "tau": 10**6}, {"c": HUGE, "tau": 10**20}],
    "T2.3": [{"d": 2, "tau": 3}, {"d": 10**6, "tau": 10**6}, {"d": 10**20, "tau": HUGE}],
    "T2.5": [{"d": 1, "tau": 1}, {"d": 40, "tau": 40}, {"d": 0, "tau": 10**20}, {"d": 10**20, "tau": 3}],
    "T2.6": [{"a": 2, "d": 1, "tau": 1}, {"a": 10**6, "d": 50, "tau": 50}, {"a": HUGE, "d": 0, "tau": 10**20}],
    "T2.7": [
        {"a": 1, "b": 2, "d": 1, "tau": 1},
        {"a": 10**6, "b": 30, "d": 30, "tau": 30},
        {"a": 3, "b": HUGE, "d": 2, "tau": 10**20},
    ],
    "T3.1": [{"k": 2, "d": 1, "tau": 1}, {"k": 5, "d": 3, "tau": 3}, {"k": 70, "d": 2, "tau": 10**20}],
    "T3.2": [
        {"c": 0, "tau": 0, "d": 3, "k": 2},
        {"c": 5, "tau": 4, "d": 3, "k": 4},
        {"c": HUGE, "tau": 10**20, "d": 2, "k": 6},
    ],
    "T3.3": [
        {"r": 2, "s": 2, "d": 1, "ks": [2, 3], "tau": 1},
        {"r": 2, "s": 2, "d": 3, "ks": [3, 3], "tau": 5},
        {"r": 3, "s": 3, "d": 0, "ks": [3, 4, 5], "tau": 10**20},
    ],
    "T4.1": [
        {"k": 1, "d": 1, "tau": 1},
        {"k": 2, "d": 3, "tau": 3},
        {"k": 1, "d": 3, "tau": 3},
        {"k": 1, "d": 2, "tau": 10**20},
    ],
    "T4.2": [
        {"k": 1, "d": 1, "tau": 1},
        {"k": 2, "d": 2, "tau": 2},
        {"k": 1, "d": 2, "tau": 3},
        {"k": 3, "d": 1, "tau": 10**20},
    ],
    "T5.1": [{"c": 1, "d": 1, "tau": 1}, {"c": 0, "d": 0, "tau": 5}, {"c": HUGE, "d": 10**20, "tau": HUGE}],
    "T5.2": [
        {"n": 3, "c": 1, "d": 1, "tau": 1},
        {"n": 2, "c": 0, "d": 0, "tau": 4},
        {"n": 300, "c": 5, "d": 2, "tau": 3},
        {"n": 300, "c": 5, "d": 0, "tau": 10**20},
        {"n": 10**6, "c": HUGE, "d": 3, "tau": 1},
    ],
    "T5.3": [{"k": 1, "d": 1, "tau": 1}, {"k": 2, "d": 2, "tau": 2}, {"k": 1, "d": 1, "tau": 10**20}],
    "T6.1": [{"c": 0, "d": 1, "tau": 1}, {"c": 3, "d": 3, "tau": 3}, {"c": HUGE, "d": 2, "tau": 10**20}],
    "T6.2": [{"d": 1, "tau": 0}, {"d": 1, "tau": 1}, {"d": 2, "tau": 2}],
    "main": [{"kappa": 1, "k": 1, "d": 1}, {"kappa": 1, "k": 2, "d": 2}, {"kappa": 2, "k": 1, "d": 1}],
}
# Their estimates run the full 2000 loop steps (about 0.12 s each on a 2-vCPU
# VM), so they are evaluated at one digit limit only.
SNAPSHOT_TALL = {
    "T6.2": [{"d": 1, "tau": 10**20}],
    "main": [{"kappa": 2, "k": 2, "d": 2}, {"kappa": 3, "k": 1, "d": 1}],
}


def _hex(v):
    return [_hex(x) for x in v] if isinstance(v, list) else format(v, "x")


def catalog_snapshot():
    """lemma id -> sha256 over value (hex), intermediates, blocked_at,
    magnitude and expr of every snapshot point, plus the set of lemma ids
    that blocked at top level."""
    digests, blocked = {}, set()
    for lemma, points in SNAPSHOT_GRID.items():
        runs = [(p, limit) for p in points for limit in SNAPSHOT_LIMITS]
        runs += [(p, SNAPSHOT_LIMITS[0]) for p in SNAPSHOT_TALL.get(lemma, [])]
        h = hashlib.sha256()
        for params, limit in runs:
            r = lemma_threshold(lemma, params, digit_limit=limit)
            if r.value is None:
                blocked.add(lemma)
            row = [
                params,
                limit,
                None if r.value is None else _hex(r.value),
                {k: _hex(v) for k, v in r.intermediates.items()},
                r.blocked_at,
                r.magnitude,
                r.expr,
            ]
            h.update(json.dumps(row, sort_keys=True).encode())
        digests[lemma] = h.hexdigest()
    return digests, blocked


def test_catalog_snapshot():
    digests, blocked = catalog_snapshot()
    assert blocked == set(SNAPSHOT_GRID) - {"T5.1"}
    golden = json.loads(SNAPSHOT.read_text())
    assert digests == golden


if __name__ == "__main__":
    # Rewrites the golden file; only for an intended change of results.
    SNAPSHOT.write_text(json.dumps(catalog_snapshot()[0], indent=1) + "\n")

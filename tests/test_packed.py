import ast
import functools
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sl2lab import packed
from sl2lab.factored import FactoredModulus, divisors
from sl2lab.packed import (
    PairContext,
    congruence_kernel_codes,
    congruence_subgroup_codes,
    full_pair_codes,
    generated_subgroup,
    index_sorted,
    isin_sorted,
    mul_codes,
    pair_subgroup,
    sl2_codes,
    unique_codes,
)
from sl2lab.sl2 import (
    IMAT_ID,
    PairElement,
    SL2Residue,
    enumerate_group,
    group_order,
    identity,
    pair_mul,
    reduce_pair,
    reduce_residue,
    symmetrize,
)
from sl2lab.spectral import standard_dense_pair_generators, unit_dense_pair_generators

Q3 = FactoredModulus.of(3)


def random_pair(rng, q1: FactoredModulus, q2: FactoredModulus) -> PairElement:
    def one(q):
        n = q.value
        while True:
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            try:
                d = (1 + b * c) * pow(a, -1, n) % n
            except ValueError:
                continue
            return SL2Residue(q, a, b, c, d)

    return PairElement(one(q1), one(q2))


# pair moduli with a trivial second factor and with both factors nontrivial
MODULI = st.sampled_from([(2, 1), (3, 1), (5, 1), (8, 1), (9, 1), (5, 3), (4, 7), (6, 5), (2, 9)])


@settings(max_examples=60, deadline=None)
@given(moduli=MODULI, seed=st.integers(0, 2**32))
def test_encode_decode_roundtrip(moduli, seed):
    # the object layer is the reference: a packed element decodes to itself,
    # and its code is an in-range radix number whose digits are its entries
    ctx = PairContext(*moduli)
    q1, q2 = FactoredModulus.of(ctx.q1), FactoredModulus.of(ctx.q2)
    x = random_pair(random.Random(seed), q1, q2)
    code = ctx.encode_element(x)
    assert 0 <= code < (ctx.q1 * ctx.q2) ** 4
    assert ctx.decode_element(code, q1, q2) == x
    assert [int(v) for v in ctx.decode(code)] == list(x.left.entries + x.right.entries)


def codes_of(ctx: PairContext, digits) -> np.ndarray:
    """Codes of 8-digit tuples (a1, b1, c1, d1, a2, b2, c2, d2), reduced first."""
    d = np.array(digits, dtype=np.int64).reshape(-1, 8) % ([ctx.q1] * 4 + [ctx.q2] * 4)
    return ctx.encode(d.T)


def random_set(rng, ctx: PairContext, size: int) -> tuple[list[PairElement], np.ndarray]:
    q1, q2 = FactoredModulus.of(ctx.q1), FactoredModulus.of(ctx.q2)
    xs = [random_pair(rng, q1, q2) for _ in range(size)]
    return xs, np.array([ctx.encode_element(x) for x in xs], dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(moduli=MODULI, size=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_mul_const_matches_object_layer(moduli, size, seed):
    rng = random.Random(seed)
    # dual route: packed multiplication vs the exact SL2Residue layer
    ctx = PairContext(*moduli)
    q1, q2 = FactoredModulus.of(ctx.q1), FactoredModulus.of(ctx.q2)
    xs, codes = random_set(rng, ctx, size)
    g = random_pair(rng, q1, q2)
    gt = g.left.entries + g.right.entries
    right = ctx.mul_const(codes, gt, "right")
    left = ctx.mul_const(codes, gt, "left")
    for x, rc, lc in zip(xs, right, left):
        assert ctx.decode_element(int(rc), q1, q2) == pair_mul(x, g)
        assert ctx.decode_element(int(lc), q1, q2) == pair_mul(g, x)
    with pytest.raises(ValueError):
        ctx.mul_const(codes, gt, "middle")


@settings(max_examples=40, deadline=None)
@given(
    moduli=MODULI,
    size=st.integers(1, 10),
    seed=st.integers(0, 2**32),
    ks=st.lists(st.integers(-(2**70), 2**70), min_size=8, max_size=8),
)
def test_mul_const_reduces_generator_entries(moduli, size, seed, ks):
    # g + k*q, with k from small to far past int64, multiplies exactly as g
    rng = random.Random(seed)
    ctx = PairContext(*moduli)
    q1, q2 = FactoredModulus.of(ctx.q1), FactoredModulus.of(ctx.q2)
    _, codes = random_set(rng, ctx, size)
    g = random_pair(rng, q1, q2)
    gt = g.left.entries + g.right.entries
    shifted = tuple(v + k * m for v, k, m in zip(gt, ks, (ctx.q1,) * 4 + (ctx.q2,) * 4))
    assert ctx.reduce_digits(shifted) == gt
    for side in ("left", "right"):
        got = ctx.mul_const(codes, shifted, side)
        assert got.tolist() == ctx.mul_const(codes, gt, side).tolist()


def test_mul_const_unreduced_overflow_regression():
    # congruent to (1,1,0,1) mod 7; unreduced, the int64 digit products wrap
    ctx = PairContext(7, 1)
    codes = sl2_codes(7)
    g = (1 + 7 * 2**60, 1 + 7 * 2**59, 7 * 2**60, 1 + 7 * 2**58, 0, 0, 0, 0)
    got = ctx.mul_const(codes, g, "left")
    assert got.tolist() == ctx.mul_const(codes, (1, 1, 0, 1, 0, 0, 0, 0), "left").tolist()
    assert np.all(isin_sorted(got, codes))
    with pytest.raises(ValueError):
        ctx.reduce_digits((1, 0, 0, 1))


@settings(max_examples=40, deadline=None)
@given(moduli=MODULI, size=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_mul_matches_object_layer(moduli, size, seed):
    # dual route: the elementwise packed product vs the SL2Residue layer
    rng = random.Random(seed)
    ctx = PairContext(*moduli)
    q1, q2 = FactoredModulus.of(ctx.q1), FactoredModulus.of(ctx.q2)
    xs, x_codes = random_set(rng, ctx, size)
    ys, y_codes = random_set(rng, ctx, size)
    both = ctx.mul(x_codes, y_codes)
    assert both.shape == (size,)
    for x, y, c in zip(xs, ys, both):
        assert ctx.decode_element(int(c), q1, q2) == pair_mul(x, y)
    # a single code against an array, on either side, and two single codes
    g, g_code = xs[0], int(x_codes[0])
    left, right = ctx.mul(g_code, y_codes), ctx.mul(y_codes, g_code)
    for y, lc, rc in zip(ys, left, right):
        assert ctx.decode_element(int(lc), q1, q2) == pair_mul(g, y)
        assert ctx.decode_element(int(rc), q1, q2) == pair_mul(y, g)
    one = ctx.mul(g_code, int(y_codes[0]))
    assert one.shape == () and int(one) == int(left[0])


def test_inv_matches_object_layer():
    ctx = PairContext(4, 7)
    q4, q7 = FactoredModulus.of(4), FactoredModulus.of(7)
    rng = random.Random(2)
    xs = [random_pair(rng, q4, q7) for _ in range(30)]
    codes = np.array([ctx.encode_element(x) for x in xs], dtype=np.int64)
    inv_codes = ctx.inv(codes)
    ident = ctx.identity_code()
    prods = [
        ctx.mul_const(np.array([c], dtype=np.int64), ctx.decode(ic), "right")[0]
        for c, ic in zip(codes, inv_codes)
    ]
    assert all(int(p) == ident for p in prods)
    assert ctx.mul(codes, inv_codes).tolist() == [ident] * len(xs)


def as_intpair(x: PairElement):
    a1, b1, c1, d1 = x.left.entries
    a2, b2, c2, d2 = x.right.entries
    return (((a1, b1), (c1, d1)), ((a2, b2), (c2, d2)))


@settings(max_examples=40, deadline=None)
@given(
    moduli=MODULI,
    size=st.integers(0, 6),
    seed=st.integers(0, 2**32),
    ks=st.lists(st.integers(-(2**70), 2**70), min_size=8, max_size=8),
)
def test_encode_intpairs_matches_object_layer(moduli, size, seed, ks):
    # integral pairs, shifted by multiples of the moduli from small to far
    # past int64, encode in order to the codes of their reductions
    rng = random.Random(seed)
    ctx = PairContext(*moduli)
    q1, q2 = FactoredModulus.of(ctx.q1), FactoredModulus.of(ctx.q2)
    xs = [random_pair(rng, q1, q2) for _ in range(size)]
    ms = (ctx.q1,) * 4 + (ctx.q2,) * 4

    def shifted(x):
        e = [v + k * m for v, k, m in zip(x.left.entries + x.right.entries, ks, ms)]
        return (((e[0], e[1]), (e[2], e[3])), ((e[4], e[5]), (e[6], e[7])))

    got = ctx.encode_intpairs([shifted(x) for x in xs] + [as_intpair(x) for x in xs])
    want = [ctx.encode_element(x) for x in xs] * 2
    assert got.dtype == np.int64 and got.shape == (2 * size,) and got.tolist() == want


def test_encode_intpairs_fractions_and_errors():
    # a Fraction entry reduces through the inverse of its denominator
    from fractions import Fraction

    ctx = PairContext(7, 1)
    half = ((1, Fraction(1, 2)), (0, 1))
    assert ctx.encode_intpairs([(half, IMAT_ID)]).tolist() == [ctx.encode([1, 4, 0, 1, 0, 0, 0, 0])]
    with pytest.raises(ValueError, match="not invertible"):
        PairContext(4, 1).encode_intpairs([(half, IMAT_ID)])
    with pytest.raises(ValueError, match="determinant"):
        ctx.encode_intpairs([(((1, 1), (1, 1)), IMAT_ID)])


def test_sl2_codes_counts():
    for q in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        codes = sl2_codes(q)
        assert codes.size == group_order(FactoredModulus.of(q))
        assert np.all(np.diff(codes) > 0)


def test_sl2_codes_match_enumerate_group():
    q = FactoredModulus.of(6)
    ctx = PairContext(6, 1)
    expected = sorted(
        ctx.encode_element(PairElement(x, SL2Residue(FactoredModulus.of(1), 0, 0, 0, 0)))
        for x in enumerate_group(q)
    )
    assert sl2_codes(6).tolist() == expected


def test_full_pair_codes():
    codes = full_pair_codes(3, 4)
    assert codes.size == group_order(Q3) * group_order(FactoredModulus.of(4))
    assert np.all(np.diff(codes) > 0)


def test_generated_subgroup_full_group():
    # the two standard unipotents generate all of SL2(Z/5)
    ctx = PairContext(5, 1)
    gens = codes_of(ctx, [(1, 1, 0, 1, 0, 0, 0, 0), (1, -1, 0, 1, 0, 0, 0, 0),
                          (1, 0, 1, 1, 0, 0, 0, 0), (1, 0, -1, 1, 0, 0, 0, 0)])
    sub = generated_subgroup(ctx, gens)
    assert sub.size == 120
    assert np.array_equal(sub, sl2_codes(5))


def test_generated_subgroup_proper():
    # a single diagonalizable element generates a small cyclic subgroup
    ctx = PairContext(5, 1)
    gens = codes_of(ctx, [(2, 0, 0, 3, 0, 0, 0, 0), (3, 0, 0, 2, 0, 0, 0, 0)])
    sub = generated_subgroup(ctx, gens)
    assert sub.size == 4  # <diag(2,3)> has order 4 mod 5


def test_generated_subgroup_cap():
    ctx = PairContext(5, 5)
    gens = codes_of(
        ctx,
        [
            (1, 1, 0, 1, 1, 0, 1, 1),
            (1, -1, 0, 1, 1, 0, -1, 1),
            (1, 0, 1, 1, 1, 1, 0, 1),
            (1, 0, -1, 1, 1, -1, 0, 1),
        ],
    )
    with pytest.raises(ValueError):
        generated_subgroup(ctx, gens, cap=100)


def test_generator_codes_are_checked():
    # 2 is the singular [[0, 0], [0, 2]] mod 5; -1 and 625 lie outside [0, 5^4)
    ctx = PairContext(5, 1)
    for bad in (2, -1, 625):
        with pytest.raises(ValueError, match="not codes of SL2 pairs"):
            generated_subgroup(ctx, np.array([ctx.identity_code(), bad]))
    # in a pair context each factor is checked: here the right one is singular
    pair = PairContext(3, 5)
    assert generated_subgroup(pair, codes_of(pair, [(1, 1, 0, 1, 1, 1, 0, 1)])).size == 15
    with pytest.raises(ValueError, match="not codes of SL2 pairs"):
        pair_subgroup(pair, codes_of(pair, [(1, 1, 0, 1, 1, 1, 1, 1)]), 100)


def test_congruence_kernel_codes():
    # |Lambda(2)/Lambda(8)| = 8^3 * (3/4) / 6 = 64
    codes = congruence_kernel_codes(8, 2)
    assert codes.size == group_order(FactoredModulus.of(8)) // group_order(FactoredModulus.of(2))
    ctx = PairContext(8, 1)
    a, b, c, d = ctx.decode(codes)[:4]
    assert np.all(a % 2 == 1) and np.all(b % 2 == 0) and np.all(c % 2 == 0)


def _in_kernel(x: PairElement, d1: FactoredModulus, d2: FactoredModulus) -> bool:
    # the object route: x reduces to the identity at (d1, d2)
    return reduce_residue(x.left, d1) == identity(d1) and reduce_residue(x.right, d2) == identity(d2)


@functools.lru_cache(maxsize=None)
def _pair_group(q1: int, q2: int) -> tuple:
    g1 = list(enumerate_group(FactoredModulus.of(q1)))
    g2 = list(enumerate_group(FactoredModulus.of(q2)))
    return tuple(PairElement(x, y) for x in g1 for y in g2)


@functools.lru_cache(maxsize=None)
def _pair_kernel(q1: int, q2: int, d1: FactoredModulus, d2: FactoredModulus) -> tuple:
    return tuple(x for x in _pair_group(q1, q2) if _in_kernel(x, d1, d2))


@settings(max_examples=40, deadline=None)
@given(
    moduli=st.sampled_from([(4, 1), (6, 1), (8, 1), (9, 1), (2, 2), (4, 2), (3, 4), (6, 2)]),
    seed=st.integers(0, 2**32),
)
def test_kernel_mask_matches_reduction_to_identity(moduli, seed):
    rng = random.Random(seed)
    ctx = PairContext(*moduli)
    group = _pair_group(*moduli)
    q1, q2 = (FactoredModulus.of(v) for v in moduli)
    for d1 in divisors(q1):
        for d2 in divisors(q2):
            # uniform draws rarely meet a deep kernel, so draw from it too
            kernel = _pair_kernel(*moduli, d1, d2)
            elems = rng.choices(group, k=20) + rng.choices(kernel, k=10)
            codes = np.array([ctx.encode_element(x) for x in elems], dtype=np.int64)
            expect = [_in_kernel(x, d1, d2) for x in elems]
            assert ctx.kernel_mask(codes, d1.value, d2.value).tolist() == expect


def test_kernel_mask_rejects_non_divisors():
    with pytest.raises(ValueError):
        PairContext(8, 3).kernel_mask(np.array([0]), 3, 1)
    with pytest.raises(ValueError):
        PairContext(8, 3).kernel_mask(np.array([0]), 2, 2)


def test_congruence_subgroup_codes():
    codes = congruence_subgroup_codes(4, 3, 2, 1)
    expected = (group_order(FactoredModulus.of(4)) // group_order(FactoredModulus.of(2))) * group_order(Q3)
    assert codes.size == expected
    # sorted with no sort of its own, and the kernel of the reduction to (2, 1)
    full = full_pair_codes(4, 3)
    assert np.array_equal(codes, full[PairContext(4, 3).kernel_mask(full, 2, 1)])


def int64_arrays():
    # full-range values, or a small pool for heavy duplication; 1-D or 2-D
    values = st.one_of(
        st.integers(-(2**63), 2**63 - 1),
        st.sampled_from([-(2**63), -1, 0, 1, 7, 2**63 - 1]),
    )
    shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40)
    return hnp.arrays(np.int64, shapes, elements=values)


@settings(max_examples=200, deadline=None)
@given(x=int64_arrays())
@example(x=np.array([], dtype=np.int64))
@example(x=np.array([5], dtype=np.int64))
@example(x=np.full(9, -3, dtype=np.int64))
@example(x=np.full((3, 4), 2**62, dtype=np.int64))
def test_unique_codes_matches_np_unique(x):
    # np.unique is the independent reference for the sort-and-mask kernel
    got, ref = unique_codes(x), np.unique(x)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)


def test_one_dedupe_kernel_in_src():
    # packed.unique_codes is the only dedupe routine of the library
    src = Path(packed.__file__).parent
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "np.unique(" in line or "np.union1d(" in line
    ]
    assert offenders == []


def test_one_closure_kernel_in_src():
    # packed.closure is the only subgroup-closure BFS of the library
    src = Path(packed.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "packed.py":
            continue
        text = path.read_text()
        if "_table_closure" in text:
            offenders.append(f"{path.name}:_table_closure")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                offenders += [
                    f"{path.name}:{loop.lineno}"
                    for loop in ast.walk(node)
                    if isinstance(loop, ast.While) and "frontier" in ast.unparse(loop.test)
                ]
    assert offenders == []


# names of src/ that only tests call: the reference a test checks reached
# code against, or the bridge a property test reaches it through
TEST_REFERENCES = {
    "exact_divides",  # test_factored::test_divisor_enumeration, for exact_divisors
    "mass_on",  # test_walks::test_sampled_frequency_matches_exact_convolution
    "inverse",  # test_sl2::test_mul_examples, for mul
    "pair_identity",  # test_measure::test_convolution_identity_mass, for convolve
    "pair_inverse",  # test_measure::test_convolve_power_examples, for convolve_power
    "decode_element",  # test_packed's exact oracle for encode, mul and reduce_codes
}


def _referenced_names(node) -> tuple[set[str], set[str]]:
    """What a node refers to, as (names, attributes).  Names are identifiers,
    attributes, imported names, identifier strings and the parts of
    dotted-name strings such as bench/spans.py's span names.  Attributes are
    what reaches a method: attribute names, and each "x.m" of consecutive
    parts of a dotted-name string, which reaches the method m of a class or
    module x.  So a dict key such as rep["elements"], or a counter name such
    as "packed.generated_subgroup.elements", reaches no method elements."""
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
            attrs.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
                attrs.update(f"{x}.{m}" for x, m in zip(parts, parts[1:]))
    return names, attrs


def _names_in(nodes) -> tuple[set[str], set[str]]:
    refs = [_referenced_names(n) for n in nodes]
    return set().union(*(r[0] for r in refs)), set().union(*(r[1] for r in refs))


def test_every_src_def_is_reached():
    # every top-level function, class and constant of src/, and every method,
    # is reached from cli.py, the acceptance criteria, bench/ or module-level
    # code, directly or through other reached definitions, or is a listed test
    # reference.  Names are matched by identifier, so a shared name counts as
    # reached; a method counts only through attribute access or a dotted-name
    # string.  Dunders, and the methods of a subclass (hooks its base class
    # calls, such as argparse's error), count as code of their class
    src = Path(packed.__file__).parent
    tests = Path(__file__).parent
    roots = [src / "cli.py", tests / "test_acceptance.py", *sorted((tests.parent / "bench").glob("*.py"))]
    reached, reached_attrs = set(TEST_REFERENCES), set(TEST_REFERENCES)

    def reach(refs):
        reached.update(refs[0])
        reached_attrs.update(refs[1])

    for path in roots:
        reach(_referenced_names(ast.parse(path.read_text())))
    # "module:name" -> (name, or a method's keys: m, module.m and Class.m;
    # whether it is a method; what its definition refers to)
    defs = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods = [
                    m for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("__")
                    and not node.bases
                ]
                for m in methods:
                    keys = {m.name, f"{path.stem}.{m.name}", f"{node.name}.{m.name}"}
                    defs[f"{path.name}:{node.name}.{m.name}"] = (keys, True, _referenced_names(m))
                rest = [n for n in node.body if n not in methods]
                own = node.bases + node.keywords + node.decorator_list + rest
                defs[f"{path.name}:{node.name}"] = (node.name, False, _names_in(own))
            elif isinstance(node, ast.FunctionDef):
                defs[f"{path.name}:{node.name}"] = (node.name, False, _referenced_names(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[f"{path.name}:{t.id}"] = (t.id, False, _referenced_names(node.value))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reach(_referenced_names(node))

    def is_reached(name, method):
        return bool(name & reached_attrs) if method else name in reached

    grown = True
    while grown:
        grown = False
        for name, method, refs in defs.values():
            if is_reached(name, method) and not (refs[0] <= reached and refs[1] <= reached_attrs):
                reach(refs)
                grown = True
    assert sorted(key for key, (name, method, _) in defs.items() if not is_reached(name, method)) == []


def test_one_kernel_test_in_src():
    # packed.one_mod is the only x = 1 (mod d) test of the library
    mask = re.compile(r"\(\w+ - 1\) % \w+|% \w+ == 1 % \w+")
    src = Path(packed.__file__).parent
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "packed.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if mask.search(line)
    ]
    assert offenders == []


def test_one_pair_code_radix_in_src():
    # PairContext.split and .join hold the radix q2^4 of the pair codes
    radix = re.compile(r"\*\*\s*4\b")
    src = Path(packed.__file__).parent
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "packed.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if radix.search(line)
    ]
    assert offenders == []


def test_no_lapack_in_src():
    # no run path calls LAPACK, and numpy is the only runtime dependency
    src = Path(packed.__file__).parent
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "linalg" in line or "scipy" in line
    ]
    assert offenders == []


# the handlers of src/ that end a caught ValueError, KeyError, Exception or
# any error without raising, each with the reason it may
RESULT_HANDLERS = {
    "cli.main": "prints the error and returns its exit code",
    "cli.cmd_lemma_check": "redraws a degenerate bracket-span pair, in at most 100 draws per trial",
}


def _handlers(node, where: str):
    """(innermost enclosing function, handler) for each except clause below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield from _handlers(child, child.name)
        else:
            if isinstance(child, ast.ExceptHandler):
                yield where, child
            yield from _handlers(child, where)


def test_no_handler_stands_in_for_a_result():
    # a library error is never read as a result: an except clause that
    # catches ValueError, KeyError, Exception or everything raises again,
    # unless it is one of RESULT_HANDLERS
    broad = {"ValueError", "KeyError", "Exception"}
    src = Path(packed.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for where, handler in _handlers(ast.parse(path.read_text()), "<module>"):
            caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            names = {ast.unparse(t).rpartition(".")[2] for t in caught if t is not None}
            raises = any(isinstance(n, ast.Raise) for stmt in handler.body for n in ast.walk(stmt))
            if (handler.type is None or names & broad) and not raises:
                found.append(f"{path.stem}.{where}")
    assert sorted(found) == sorted(RESULT_HANDLERS)


def test_isin_and_index_sorted():
    table = np.array([2, 5, 9, 11], dtype=np.int64)
    vals = np.array([5, 3, 11], dtype=np.int64)
    assert isin_sorted(vals, table).tolist() == [True, False, True]
    assert index_sorted(np.array([2, 11], dtype=np.int64), table).tolist() == [0, 3]
    with pytest.raises(KeyError):
        index_sorted(np.array([7], dtype=np.int64), table)


@settings(max_examples=60, deadline=None)
@given(
    moduli=MODULI,
    sizes=st.tuples(st.integers(0, 25), st.integers(0, 25)),
    block=st.integers(1, 40),
    flush=st.integers(1, 100),
    seed=st.integers(0, 2**32),
)
def test_mul_codes_matches_bruteforce(moduli, sizes, block, flush, seed):
    rng = random.Random(seed)
    # small block and flush constants force several blocks and dedupe merges
    ctx = PairContext(*moduli)
    xs, a = random_set(rng, ctx, sizes[0])
    ys, b = random_set(rng, ctx, sizes[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packed, "BLOCK", block)
        mp.setattr(packed, "FLUSH", flush)
        got = mul_codes(ctx, np.unique(a), np.unique(b))
    brute = {ctx.encode_element(pair_mul(x, y)) for x in xs for y in ys}
    assert got.dtype == np.int64
    assert got.tolist() == sorted(brute)


@functools.lru_cache(maxsize=None)
def group_elements(q1: int, q2: int) -> tuple[PairElement, ...]:
    return tuple(
        PairElement(x, y)
        for x in enumerate_group(FactoredModulus.of(q1))
        for y in enumerate_group(FactoredModulus.of(q2))
    )


@settings(max_examples=40, deadline=None)
@given(
    moduli=st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]),
    shares=st.tuples(st.floats(0.25, 1.0), st.floats(0.25, 1.0)),
    block=st.integers(1, 40),
    flush=st.integers(1, 100),
    seed=st.integers(0, 2**32),
)
def test_mul_codes_saturating_matches_bruteforce(moduli, shares, block, flush, seed):
    # sets of at least a quarter of the group, so that most products fill
    # it; small blocks let the exit fire between blocks
    rng = random.Random(seed)
    ctx = PairContext(*moduli)
    group = group_elements(*moduli)
    xs, ys = (rng.sample(group, max(1, int(s * len(group)))) for s in shares)
    a, b = (np.array([ctx.encode_element(x) for x in s], dtype=np.int64) for s in (xs, ys))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packed, "BLOCK", block)
        mp.setattr(packed, "FLUSH", flush)
        got = mul_codes(ctx, a, b)
    brute = {ctx.encode_element(pair_mul(x, y)) for x in xs for y in ys}
    assert got.tolist() == sorted(brute)


def saturating_quarters() -> tuple[PairContext, np.ndarray, np.ndarray, np.ndarray]:
    """(ctx, G, a, b): two random quarters a, b of G = SL2(Z/5)^2."""
    full = full_pair_codes(5, 5)
    rng = np.random.default_rng(1)
    a, b = (np.sort(rng.choice(full, size=4000, replace=False)) for _ in range(2))
    return PairContext(5, 5), full, a, b


def table_blocks(monkeypatch) -> list[int]:
    """Record the size of each block of products the table route forms."""
    blocks = []
    table_route = packed._table_route

    def counted(*args):
        a_parts, b_parts, product, found = table_route(*args)

        def spy(x, y):
            out = product(x, y)
            blocks.append(out.size)
            return out

        return a_parts, b_parts, spy, found

    monkeypatch.setattr(packed, "_table_route", counted)
    return blocks


def test_mul_codes_stops_once_the_group_is_full(monkeypatch):
    # two random quarters of SL2(Z/5)^2 fill it within the first block of
    # products, so the other 61 blocks are never formed
    ctx, full, a, b = saturating_quarters()
    blocks = table_blocks(monkeypatch)
    assert np.array_equal(mul_codes(ctx, a, b), full)
    # rows of 4000 products, BLOCK // 4000 = 65 rows a block: 62 blocks in all
    assert blocks == [65 * 4000]


def test_mask_route_enumerates_no_group(monkeypatch):
    # the mask ranks the products among the distinct table entries, so the
    # saturating product needs no list of a factor group's elements
    ctx, full, a, b = saturating_quarters()
    blocks = table_blocks(monkeypatch)

    def refuse(q):
        raise AssertionError(f"sl2_codes({q}) called")

    monkeypatch.setattr(packed, "sl2_codes", refuse)
    assert np.array_equal(mul_codes(ctx, a, b), full)
    assert blocks == [65 * 4000]


def brute_matrix_products(ctx: PairContext, xs, ys) -> list[int]:
    """Sorted distinct codes of x y over 8-entry tuples, in Python integers."""

    def mul(x, y, q):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)

    prods = {mul(x[:4], y[:4], ctx.q1) + mul(x[4:], y[4:], ctx.q2) for x in xs for y in ys}
    return sorted(codes_of(ctx, sorted(prods)).tolist())


@settings(max_examples=60, deadline=None)
@given(
    moduli=st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]),
    sizes=st.tuples(st.integers(1, 60), st.integers(1, 60)),
    block=st.integers(1, 40),
    flush=st.integers(1, 100),
    seed=st.integers(0, 2**32),
)
def test_mul_codes_non_group_codes_match_bruteforce(moduli, sizes, block, flush, seed):
    # any 2x2 matrices, most not of determinant 1: mul_codes gives their
    # exact product set, or a ValueError when the exit would fire on them
    rng = random.Random(seed)
    ctx = PairContext(*moduli)
    q1, q2 = moduli

    def draw(n):
        return [
            tuple(rng.randrange(q1) for _ in range(4)) + tuple(rng.randrange(q2) for _ in range(4))
            for _ in range(n)
        ]

    xs, ys = draw(sizes[0]), draw(sizes[1])
    brute = brute_matrix_products(ctx, xs, ys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packed, "BLOCK", block)
        mp.setattr(packed, "FLUSH", flush)
        try:
            got = mul_codes(ctx, codes_of(ctx, xs), codes_of(ctx, ys))
        except ValueError:
            # the merged products numbered |G|, from codes not all in the group
            assert len(brute) >= ctx.order
            with pytest.raises(ValueError):
                ctx.check_codes(codes_of(ctx, xs + ys))
            return
    assert got.tolist() == brute


def test_mul_codes_exit_refuses_codes_outside_the_group(monkeypatch):
    # SL2(Z/3) times SL2(Z/3) fills the group in the first block, but the
    # determinant-2 code after it in a makes the product twice the group:
    # comparing the merged set with the group cannot see that, so the exit
    # checks its inputs
    ctx = PairContext(3, 1)
    g = sl2_codes(3)
    a = np.append(g, codes_of(ctx, [(2, 0, 0, 1, 0, 0, 0, 0)]))
    monkeypatch.setattr(packed, "BLOCK", g.size)
    with pytest.raises(ValueError, match="not codes of SL2 pairs"):
        mul_codes(ctx, a, g)
    monkeypatch.setattr(packed, "BLOCK", 2 * a.size * g.size)
    assert mul_codes(ctx, a, g).size == 2 * g.size


def route_spy(monkeypatch) -> list[bool]:
    """Record, per mul_codes call, whether it took the table route."""
    routes = []
    orig = packed._table_route

    def spy(*args):
        out = orig(*args)
        routes.append(out is not None)
        return out

    monkeypatch.setattr(packed, "_table_route", spy)
    return routes


def digit_tuples(ctx: PairContext, codes) -> list[tuple[int, ...]]:
    return list(zip(*(col.tolist() for col in ctx.decode(np.asarray(codes, dtype=np.int64)))))


def test_mul_codes_pair_routes_match_bruteforce(monkeypatch):
    # both routes of a pair context against Python products of the digits:
    # random SL2 pairs, sets of a quarter of the group or more, and 2x2
    # digit tuples of any determinant, drawn from few parts per factor so
    # that the tables apply to them too
    routes = route_spy(monkeypatch)
    tables = []
    edge_products = packed._edge_products

    def recorded(*args):
        out = edge_products(*args)
        tables.append(out)
        return out

    monkeypatch.setattr(packed, "_edge_products", recorded)
    outcomes = set()

    @settings(max_examples=80, deadline=None)
    @given(
        moduli=st.sampled_from([(2, 2), (3, 2), (2, 3), (5, 4)]),
        kind=st.sampled_from(["random", "saturating", "digits"]),
        sizes=st.tuples(st.integers(1, 150), st.integers(1, 150)),
        shares=st.tuples(st.floats(0.25, 1.0), st.floats(0.25, 1.0)),
        pool=st.integers(1, 16),
        block=st.integers(8, 512),
        flush=st.integers(1, 20_000),
        seed=st.integers(0, 2**32),
    )
    # more distinct parts than SL2(Z/2) has elements: the bound rules out tables
    @example(
        moduli=(2, 2), kind="digits", sizes=(60, 60), shares=(1.0, 1.0), pool=16,
        block=512, flush=20_000, seed=0,
    )
    # tables within the bound, with entries outside SL2(Z/3): the mask route
    @example(
        moduli=(3, 2), kind="digits", sizes=(60, 60), shares=(1.0, 1.0), pool=3,
        block=512, flush=20_000, seed=0,
    )
    # tables within the bound and FLUSH, whose distinct entries fit a mask of
    # 8 FLUSH bytes and do not
    @example(
        moduli=(5, 4), kind="random", sizes=(200, 2), shares=(1.0, 1.0), pool=1,
        block=512, flush=20_000, seed=0,
    )
    @example(
        moduli=(5, 4), kind="random", sizes=(200, 2), shares=(1.0, 1.0), pool=1,
        block=512, flush=500, seed=0,
    )
    def check(moduli, kind, sizes, shares, pool, block, flush, seed):
        rng = random.Random(seed)
        ctx = PairContext(*moduli)
        q1, q2 = moduli
        if kind == "random":
            xs, ys = (digit_tuples(ctx, random_set(rng, ctx, n)[1]) for n in sizes)
        elif kind == "saturating" and ctx.order <= 144:
            group = full_pair_codes(q1, q2).tolist()
            xs, ys = (
                digit_tuples(ctx, rng.sample(group, max(1, int(s * len(group))))) for s in shares
            )
        else:
            lefts = [tuple(rng.randrange(q1) for _ in range(4)) for _ in range(pool)]
            rights = [tuple(rng.randrange(q2) for _ in range(4)) for _ in range(pool)]
            xs, ys = (
                [rng.choice(lefts) + rng.choice(rights) for _ in range(n)] for n in sizes
            )
        brute = brute_matrix_products(ctx, xs, ys)
        tables.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(packed, "BLOCK", block)
            mp.setattr(packed, "FLUSH", flush)
            try:
                got = mul_codes(ctx, codes_of(ctx, xs), codes_of(ctx, ys))
            except ValueError:
                # the merged products numbered |G|, from codes not all in the group
                assert len(brute) >= ctx.order
                with pytest.raises(ValueError):
                    ctx.check_codes(codes_of(ctx, xs + ys))
                got = None
        # the route taken, and why the mask route was not
        orders = [PairContext(q, 1).order for q in moduli]
        bound = sum(min(len(xs), g) * min(len(ys), g) for g in orders)
        in_group = isin_sorted(np.array(brute), full_pair_codes(q1, q2)).all()
        mask_bytes = np.prod([np.unique(t).size for t in tables])
        if routes[-1]:
            # the mask over the distinct table entries fits
            assert mask_bytes <= 8 * flush
            if not in_group:
                outcomes.add("mask, outside the group")
            else:
                outcomes.add("mask" if len(brute) < ctx.order else "mask, full group")
        elif tables:
            # the tables were built, and their distinct entries overflow the mask
            assert mask_bytes > 8 * flush
            outcomes.add("mask bytes")
        elif bound >= len(xs) * len(ys) or bound > flush:
            outcomes.add("size")
        else:
            outcomes.add("parts")
        # the tables keep to their bound, which is below |a| |b| and FLUSH
        assert sum(t.size for t in tables) <= min(bound, flush, len(xs) * len(ys) - 1)
        if got is not None:
            assert got.dtype == np.int64
            assert got.tolist() == brute

    check()
    assert outcomes == {
        "mask", "mask, full group", "mask, outside the group", "size", "mask bytes", "parts"
    }


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]),
    shares=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32),
)
def test_single_factor_context_never_builds_tables(q, shares, seed):
    # sets of distinct codes of SL2(Z/q), from one element to the whole
    # group, and the subgroup closures of the spectral sweeps
    group = sl2_codes(q)
    rng = np.random.default_rng(seed)
    a, b = (
        np.sort(rng.choice(group, size=max(1, int(s * group.size)), replace=False))
        for s in shares
    )
    with pytest.MonkeyPatch.context() as mp:
        routes = route_spy(mp)
        got = mul_codes(PairContext(q, 1), a, b)
        pair_subgroup(PairContext(q, 1), rng.choice(group, size=3), cap=10**6)
    assert routes and not any(routes)
    ctx = PairContext(q, 1)
    assert got.tolist() == sorted(set(ctx.mul(a[:, None], b).ravel().tolist()))


def elementary_generators(q1: int, q2: int) -> list[tuple[int, ...]]:
    """Upper and lower unipotents in each factor; they generate SL2 x SL2."""
    one1, one2 = 1 % q1, 1 % q2
    id1, id2 = (one1, 0, 0, one1), (one2, 0, 0, one2)
    u1, l1 = (one1, one1, 0, one1), (one1, 0, one1, one1)
    u2, l2 = (one2, one2, 0, one2), (one2, 0, one2, one2)
    return [u1 + id2, l1 + id2, id1 + u2, id1 + l2]


@settings(max_examples=15, deadline=None)
@given(
    moduli=st.sampled_from([(1, 1), (2, 1), (4, 1), (6, 1), (9, 1), (3, 2), (4, 3), (5, 2)]),
    block=st.integers(1, 64),
)
def test_generated_subgroup_matches_enumerate_group(moduli, block):
    # a non-symmetric generating set still closes to the whole group
    q1, q2 = moduli
    ctx = PairContext(q1, q2)
    expected = sorted(
        ctx.encode_element(PairElement(x, y))
        for x in enumerate_group(FactoredModulus.of(q1))
        for y in enumerate_group(FactoredModulus.of(q2))
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packed, "BLOCK", block)
        sub = generated_subgroup(ctx, codes_of(ctx, elementary_generators(q1, q2)))
    assert sub.tolist() == expected


def pair_bfs(ctx: PairContext, gens, cap: int):
    """Sorted codes of <gens> by breadth-first search over all pair codes
    (``closure`` over ``mul_codes``), or None above ``cap``: the reference
    for the Schreier route of ``pair_subgroup``."""
    gen_codes = unique_codes(gens)
    return packed.closure(gen_codes, ctx.identity_code(), lambda x, g: mul_codes(ctx, x, g), cap)


def stock_codes(name: str, q1: int, q2: int) -> np.ndarray:
    base = (standard_dense_pair_generators if name == "stock" else unit_dense_pair_generators)()
    return PairContext(q1, q2).encode_intpairs(symmetrize(base))


# the stock set at 9 and 16, the unit set at 8, and every diagonal set
# generate subgroups that are not the direct product of their projections
STOCK_MODULI = [(3, 3), (4, 4), (5, 5), (6, 6), (8, 8), (9, 9), (12, 12), (16, 16),
                (4, 9), (5, 7), (9, 4), (7, 1), (11, 1), (29, 1), (1, 5)]
UNIT_MODULI = [(3, 3), (4, 4), (5, 5), (6, 6), (8, 8), (4, 9), (5, 7), (9, 4), (7, 1), (1, 5)]
RANDOM_MODULI = [(2, 1), (3, 3), (4, 4), (5, 5), (4, 9), (5, 7), (2, 9), (8, 2), (6, 3), (1, 5)]
DIAGONAL_MODULI = [(4, 2), (5, 5), (6, 3), (7, 7), (8, 4), (9, 3), (12, 6)]
SUBGROUP_CASES = (
    [("stock", m) for m in STOCK_MODULI]
    + [("unit", m) for m in UNIT_MODULI]
    + [("random", m) for m in RANDOM_MODULI]
    + [("diagonal", m) for m in DIAGONAL_MODULI]
)


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(SUBGROUP_CASES),
    k=st.integers(0, 3),
    seed=st.integers(0, 2**32),
    cap_offset=st.integers(-3, 3),
    cap_scale=st.sampled_from([None, 0.0, 0.3, 0.7, 2.0]),
    block=st.sampled_from([packed.BLOCK, 64, 500]),
)
def test_generated_subgroup_matches_pair_bfs(case, k, seed, cap_offset, cap_scale, block):
    family, (q1, q2) = case
    ctx = PairContext(q1, q2)
    rng = random.Random(seed)
    if family in ("stock", "unit"):
        gens = stock_codes(family, q1, q2)
    else:
        # k random elements and their inverses; a diagonal set pairs each
        # x in SL2(Z/q1) with its reduction mod q2
        qq1, qq2 = FactoredModulus.of(q1), FactoredModulus.of(q2)
        xs = [random_pair(rng, qq1, qq2) for _ in range(k)]
        if family == "diagonal":
            xs = [PairElement(x.left, reduce_residue(x.left, qq2)) for x in xs]
        codes = np.array([ctx.encode_element(x) for x in xs], dtype=np.int64)
        gens = np.append(codes, ctx.inv(codes)).astype(np.int64)
    ref = pair_bfs(ctx, gens, 10**6)
    order = ref.size
    cap = max(0, order + cap_offset) if cap_scale is None else int(cap_scale * order)
    # a small BLOCK splits the edge products and the coset rows into blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packed, "BLOCK", block)
        if order > cap:
            assert pair_bfs(ctx, gens, cap) is None
            with pytest.raises(ValueError, match="exceeds cap"):
                generated_subgroup(ctx, gens, cap=cap)
            return
        sub = pair_subgroup(ctx, gens, cap)
    assert sub.codes.dtype == np.int64
    assert np.array_equal(sub.codes, ref)
    assert np.array_equal(generated_subgroup(ctx, gens, cap=cap), ref)
    # A = pi1(H), N2 = H n (1 x G2), and direct means H = A x N2
    m = q2**4
    left, right = np.divmod(ref, m)
    assert np.array_equal(sub.left, unique_codes(left))
    assert np.array_equal(sub.kernel, right[left == PairContext(q1, 1).identity_code()])
    assert sub.left.size * sub.kernel.size == order
    product = (sub.left[:, None] * m + sub.kernel).ravel()
    assert sub.direct == np.array_equal(product, ref)


def test_pair_subgroup_direct_and_not():
    # the stock set generates all of SL2(Z/5)^2; mod 9 it does not split
    full = pair_subgroup(PairContext(5, 5), stock_codes("stock", 5, 5), 10**6)
    assert full.direct and full.codes.size == 120**2
    assert np.array_equal(full.codes, full_pair_codes(5, 5))
    split = pair_subgroup(PairContext(9, 9), stock_codes("stock", 9, 9), 10**6)
    assert not split.direct
    assert split.codes.size == split.left.size * split.kernel.size == 5832


def test_generated_subgroup_searches_factors_only(monkeypatch):
    # the pair group is never searched: every mul_codes call of the
    # enumeration runs in a (q, 1) factor context
    contexts = []
    orig = packed.mul_codes

    def spy(ctx, a, b):
        contexts.append(ctx)
        return orig(ctx, a, b)

    monkeypatch.setattr(packed, "mul_codes", spy)
    sub = generated_subgroup(PairContext(9, 9), stock_codes("stock", 9, 9))
    assert sub.size == 5832
    assert contexts and all(ctx == PairContext(9, 1) for ctx in contexts)


def test_reduce_codes():
    ctx = PairContext(4, 9)
    tgt = PairContext(2, 3)
    rng = random.Random(4)
    q4, q9 = FactoredModulus.of(4), FactoredModulus.of(9)
    q2, q3 = FactoredModulus.of(2), FactoredModulus.of(3)
    xs = [random_pair(rng, q4, q9) for _ in range(20)]
    codes = np.array([ctx.encode_element(x) for x in xs], dtype=np.int64)
    red = ctx.reduce_codes(codes, tgt)
    for x, rc in zip(xs, red):
        assert tgt.decode_element(int(rc), q2, q3) == reduce_pair(x, q2, q3)

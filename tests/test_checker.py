"""The certificate checker on integer root coordinates, against the group-based oracle.

``weyldl.checker.check_certificate`` must return the ``CheckResult`` of
``checker_oracle.oracle_check`` (accepted, reason and rows checked) on
every input: the frozen benchmark corpus and variants of it, both routes'
certificates through rank 6 (W3's 360 and rank 5/6's 816), and
Hypothesis-made certificates, and a rejection on an inversion row.  The
walk's rows are ``criterion``'s rows, its rational and sqrt halves move
the same keys, and the bound its root keys rest on holds for every type.
Its trusted base is pinned too: it imports from weyldl only the names
of ``exactnum`` it reads and ``rootdata.Frozen``, its own type tables
equal ``rootdata``'s, it checks the corpus with the group and root-closure
builders and every ``rootdata`` function disabled, and a hand-built w or
mu that is not a tuple gets a reason, not an exception.  The certificate
parser it owns is checked here as well: its length limit, its number
readers of wire formats 2 and 1 against a regex reference, and its integer
reading of whole certificates against twins built in process from that
reference (the corpus, the benchmark's tampered variants and the hostile
certificates), with the writer's text.  Format-2 text refuses every value
outside its number grammar with a reason, format-1 text a number of format
2, and the format-1 corpus keeps the verdicts it had before format 2.
"""

import ast
import hashlib
import importlib.util
import inspect
import json
import math
import random
import re
import time
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldl import checker, rootdata, weyl
from weyldl.checker import (
    FORM_FORWARD,
    FORM_INVERSE,
    MAX_CERT_CHARS,
    MAX_RANK,
    Certificate,
    CertificateError,
    CheckResult,
    check_certificate,
    number_from_json,
    number_to_json,
)
from weyldl.conjugacy import class_list, pi_of
from weyldl.criterion import (
    build_forward_system,
    certify_min_element,
    minimal_q,
)
from weyldl.exactnum import (
    SQRT2,
    SQRT3,
    IncompatibleRadicandError,
    QuadExt,
    common_parts,
    integer_parts,
    qext,
)
from weyldl.lifting import constructive_certificate
from weyldl.rootdata import build_twist, candidate_types, positive_root_count

from checker_oracle import inverse_system, oracle_check
from conftest import RANK_5_6, RANK_LE_4, group
from fraction_quadext import certificate_json
from test_criterion import HOSTILE
from test_exactnum import assert_canonical

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "data" / "check_corpus.jsonl"


def _corpus() -> list[Certificate]:
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return [Certificate.from_json(json.loads(line)["cert"]) for line in lines]


def _with(cert: Certificate, **fields) -> Certificate:
    values = {name: getattr(cert, name) for name in Certificate.__slots__}
    values.update(fields)
    return Certificate(**values)


def _mu(cert: Certificate, coords) -> Certificate:
    return _with(cert, mu=tuple(coords))


def _non_reduced(cert: Certificate) -> Certificate:
    """The word with s_1 s_1 put in the middle, or the word itself when no room is left."""
    w = cert.w
    if len(w) + 2 > positive_root_count(cert.family, cert.rank):
        return cert
    return _with(cert, w=w[: len(w) // 2] + (1, 1) + w[len(w) // 2:])


# (name, variant of a valid certificate, whether the variant is still valid).
VARIANTS = [
    ("mu_negated", lambda c: _mu(c, (-x for x in c.mu)), False),
    ("mu_zero", lambda c: _mu(c, [qext(0)] * c.rank), False),
    ("mu_wrong_length", lambda c: _mu(c, c.mu + (qext(1),)), False),
    ("letter_out_of_range", lambda c: _with(c, w=c.w + (c.rank + 1,)), False),
    ("letter_zero", lambda c: _with(c, w=(0,) + c.w), False),
    ("float_letter", lambda c: _with(c, w=(1.0,) + c.w), False),
    ("string_coordinate", lambda c: _mu(c, ("1",) + c.mu[1:]), False),
    ("q_nonpositive", lambda c: _with(c, q=-c.q), False),
    ("q_zero", lambda c: _with(c, q=qext(0)), False),
    ("word_too_long", lambda c: _with(c, w=(1,) * (positive_root_count(c.family, c.rank) + 1)),
     False),
    ("non_reduced", _non_reduced, True),
    # A positive factor scales every slack; a rational certificate takes the sqrt walk.
    ("mu_times_sqrt", lambda c: _mu(c, (x * (SQRT3 if c.q.d == 3 else SQRT2) for x in c.mu)),
     True),
    ("bad_twist", lambda c: _with(c, twist=5), False),
    ("bad_family", lambda c: _with(c, family="Z"), False),
    ("bad_direction", lambda c: _with(c, direction="sideways"), False),
    ("bad_form", lambda c: _with(c, form="lemma-9"), False),
    # Not sure to be valid or invalid; only agreement is asserted.
    ("reversed_word", lambda c: _with(c, w=tuple(reversed(c.w))), None),
    ("other_form", lambda c: _with(c, form=FORM_INVERSE if c.form == FORM_FORWARD
                                   else FORM_FORWARD), None),
    ("other_direction", lambda c: _with(c, direction="delta" if c.direction == "delta_inv"
                                        else "delta_inv"), None),
    ("huge_coordinate", lambda c: _mu(c, (qext(-10 ** 4000),) + c.mu[1:]), None),
    ("tiny_coordinate", lambda c: _mu(c, (qext(Fraction(1, 3 ** 3000)),) + c.mu[1:]),
     None),
    ("mixed_radicands", lambda c: _mu(c, (SQRT2 + 1, SQRT3) + c.mu[2:]), None),
]


@pytest.fixture(scope="module")
def corpus() -> list[Certificate]:
    return _corpus()


def test_corpus_accepted_by_both(corpus):
    """Every frozen corpus certificate is accepted, with the oracle's result."""
    assert len(corpus) == 414
    for cert in corpus:
        result = check_certificate(cert)
        assert result.accepted, (cert, result)
        assert result == oracle_check(cert), cert


@pytest.mark.parametrize("name, variant, valid", VARIANTS, ids=[v[0] for v in VARIANTS])
def test_corpus_variants_agree(corpus, name, variant, valid):
    """Tampered and hostile corpus variants: the oracle's result, and the expected verdict."""
    for cert in corpus:
        changed = variant(cert)
        result = check_certificate(changed)
        assert result == oracle_check(changed), (name, changed)
        if valid is not None:
            assert result.accepted == valid, (name, changed, result)


@pytest.mark.parametrize("mutate, reason", [h[1:] for h in HOSTILE], ids=[h[0] for h in HOSTILE])
def test_hostile_json_agrees(mutate, reason):
    """The hostile certificates of ``test_criterion``: the oracle's result where one parses."""
    obj = Certificate("G", 2, 1, "delta", qext(2), (2, 1, 2, 1), FORM_FORWARD,
                      (qext(2), qext(1))).to_json_dict()
    mutate(obj)
    if reason is not None:
        cert = Certificate.from_json(json.dumps(obj))
        assert check_certificate(cert) == oracle_check(cert)


@pytest.mark.parametrize("groups, expected", [(RANK_LE_4, 360), (RANK_5_6, 816)],
                         ids=["w3_rank_le_4", "rank_5_6"])
def test_route_certificates_agree(groups, expected):
    """Both routes' certificates of every class (W3's 360, rank 5/6's 816) are
    accepted, with the oracle's result."""
    count = 0
    for family, rank, order in groups:
        W, twist = group(family, rank), build_twist(family, rank, order)
        q = minimal_q(family, order)
        for cls in class_list(W, {i: twist(i) for i in W.system.nodes}):
            for cert in (certify_min_element(W, twist, cls, q),
                         constructive_certificate(W, twist, cls, q)):
                result = check_certificate(cert)
                assert result.accepted and result == oracle_check(cert), cert
                count += 1
    assert count == expected


# -- Hypothesis-made certificates --------------------------------------------------

TYPES = [t for rank in range(1, MAX_RANK + 1) for t in candidate_types(rank)]
_RATIONALS = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 4))


def _numbers(radicands):
    """Numbers a + b sqrt(d) with d drawn from ``radicands`` (b = 0 when d = 1)."""
    return st.builds(lambda d, a, b: QuadExt(a, b if d != 1 else 0, d),
                     st.sampled_from(radicands), _RATIONALS, _RATIONALS)


_NUMBERS = {r: _numbers(r) for r in ((1,), (1, 2), (1, 3), (1, 2, 3))}
_Q = _NUMBERS[1, 2, 3] | st.sampled_from([qext(2), SQRT2, SQRT3, qext(0), qext(-1)])
_DESCRIPTORS = st.sampled_from(TYPES + [("Z", 3), ("E", 5), ("A", 0)])


@st.composite
def certificates(draw):
    """Certificates of every type through rank 8, mostly well-formed, often invalid.

    Words may be non-reduced, longer than the longest element, or hold
    letters out of range; q lies in Q, Q(sqrt 2) or Q(sqrt 3) and may be
    zero or negative; mu mixes radicands and may have the wrong rank; a
    few descriptors, directions and forms name nothing.
    """
    family, rank = draw(_DESCRIPTORS)
    twist = draw(st.sampled_from([1, 1, 2, 2, 3, 4]))
    longest = positive_root_count(family, rank) if (family, rank) in TYPES else 4
    top = max(rank, 1)
    letters = st.integers(1, top) | st.sampled_from([0, top + 1])
    word = draw(st.lists(st.integers(1, top), max_size=longest + 2)
                | st.lists(letters, max_size=8))
    q = draw(_Q)
    radicands = draw(st.sampled_from([(1,), tuple(sorted({1, q.d})), (1, 2, 3)]))
    size = draw(st.sampled_from([top, top, top, top - 1, top + 1]))
    mu = draw(st.lists(_NUMBERS[radicands], min_size=size, max_size=size))
    direction = draw(st.sampled_from(["delta", "delta_inv", "delta", "delta_inv", "up"]))
    form = draw(st.sampled_from([FORM_FORWARD, FORM_INVERSE] * 2 + ["other"]))
    return Certificate(family, rank, twist, direction, q, tuple(word), form, tuple(mu))


@settings(max_examples=300, deadline=None)
@given(certificates())
def test_hypothesis_certificates_agree(cert):
    """Any certificate gets the oracle's result: accepted, reason and rows checked."""
    assert check_certificate(cert) == oracle_check(cert)


@st.composite
def feasible_points(draw):
    """Certificates with large positive mu, so that many rows hold and some certificates
    pass: words of any length up to the longest element, both forms and directions."""
    family, rank = draw(st.sampled_from([t for t in TYPES if t[1] <= 4]))
    orders = [1] + [o for o in (2, 3) if _has_twist(family, rank, o)]
    word = draw(st.lists(st.integers(1, rank), max_size=positive_root_count(family, rank)))
    big = st.integers(50, 400)
    mu = [qext(draw(big)) for _ in range(rank)]
    return Certificate(family, rank, draw(st.sampled_from(orders)),
                       draw(st.sampled_from(["delta", "delta_inv"])),
                       draw(st.sampled_from([qext(2), qext(Fraction(7, 2)), SQRT2 * 2, SQRT3 * 2])),
                       tuple(word), draw(st.sampled_from([FORM_FORWARD, FORM_INVERSE])),
                       tuple(mu))


def _has_twist(family: str, rank: int, order: int) -> bool:
    try:
        build_twist(family, rank, order)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(feasible_points())
def test_hypothesis_near_feasible_certificates_agree(cert):
    """Points where many rows hold, so later rows and accepts are compared too."""
    assert check_certificate(cert) == oracle_check(cert)


@st.composite
def _words(draw):
    """(family, rank, twist, direction, form, word): any word, reduced or not, of a twisted type."""
    family, rank = draw(st.sampled_from(TYPES))
    twist = draw(st.sampled_from([o for o in (1, 2, 3) if _has_twist(family, rank, o)]))
    word = draw(st.lists(st.integers(1, rank), max_size=positive_root_count(family, rank)))
    return (family, rank, twist, draw(st.sampled_from(["delta", "delta_inv"])),
            draw(st.sampled_from([FORM_FORWARD, FORM_INVERSE])), tuple(word))


def _signed_coords(key: int, rank: int) -> tuple[int, ...]:
    """The coordinates of any root from its key: balanced base-16 digits in -8..7."""
    coords = []
    for _ in range(rank):
        coords.append((key + 8) % 16 - 8)
        key = (key - coords[-1]) // 16
    assert key == 0
    return tuple(reversed(coords))


@settings(max_examples=300, deadline=None)
@given(_words(), st.data())
def test_rows_are_the_systems_rows(case, data):
    """The walk's q-row columns and its inversions, decoded and in (height, key) order,
    are the rows of ``criterion``'s system with its q columns, and each row's value at
    a random mu is the system's slack."""
    family, rank, twist, direction, form, word = case
    q = data.draw(st.sampled_from([qext(2), qext(Fraction(7, 2)), SQRT2 * 2, SQRT3 + 1]))
    mu = data.draw(st.lists(_NUMBERS[tuple(sorted({1, q.d}))], min_size=rank, max_size=rank))
    W = group(family, rank)
    forward = form == FORM_FORWARD
    build = build_forward_system if forward else inverse_system
    system = build(W, W.from_word(word), pi_of(build_twist(family, rank, twist), direction), q)

    _, links, units, maps = checker._descriptor(family, rank, twist)
    ps, qs, r, d = integer_parts(mu)
    walked = word[::-1] if forward else word
    keys, ps_at, met = checker._sweep(walked, links, units, ps)
    keys_q, qs_at, met_q = checker._sweep(walked, links, units, qs)
    assert keys_q == keys and list(met_q) == list(met)
    pi = maps[direction]
    cols = list(range(rank)) if forward else list(pi)
    qcols = list(pi) if forward else list(range(rank))
    inversions = sorted(met, key=lambda k: (sum(checker._coords(k, rank)), k))
    columns = [_signed_coords(keys[v], rank) for v in cols]
    coeffs = [tuple(-c for c in col) for col in columns]
    assert coeffs + [checker._coords(k, rank) for k in inversions] == list(system.coeffs)
    assert qcols + [-1] * len(inversions) == list(system.qcols)

    def value(p, s):
        return QuadExt(Fraction(p, r), Fraction(s, r), d)

    slacks = ([q * mu[u] - value(ps_at[v], qs_at[v]) for u, v in zip(qcols, cols)]
              + [value(met[k], met_q[k]) for k in inversions])
    assert slacks == system.evaluate({i + 1: x for i, x in enumerate(mu)})


@pytest.mark.parametrize("family, rank", TYPES, ids=[f"{f}{n}" for f, n in TYPES])
def test_root_keys_are_injective_and_in_root_order(family, rank):
    """Through ``MAX_RANK`` every root coordinate lies in -7..7, so the base-16 key of a
    positive root decodes back to it, and (height, key) sorts like rootdata's
    (height, coordinates)."""
    roots = rootdata.build_root_system(family, rank).positive_roots
    assert all(-7 <= c <= 7 for root in roots for c in root)
    units = checker._descriptor(family, rank, 1)[2]
    by_key = {sum(map(mul, root, units)): root for root in roots}
    assert len(by_key) == len(roots)
    assert all(checker._coords(key, rank) == root for key, root in by_key.items())
    in_key_order = [by_key[k] for k in sorted(by_key, key=lambda k: (sum(by_key[k]), k))]
    assert in_key_order == sorted(roots, key=lambda root: (sum(root), root)) == list(roots)


@pytest.mark.parametrize("family, rank, word, mu, reason, rows", [
    ("A", 4, (3, 1, 4, 2, 3, 4, 1), (-1, 6, 0, 5),
     "violated: inversion (0, 0, 1, 0) (slack zero)", 11),
    ("C", 3, (3, 2, 1, 2, 3), (0, 3, -1), "violated: inversion (0, 0, 1) (slack negative)", 8),
    ("A", 4, (3, 1, 4, 2, 3, 4, 1), (0, 1, 1, 1),
     "violated: inversion (1, 0, 0, 0) (slack zero)", 11),
], ids=["slack_zero", "slack_negative", "lone_slack_zero"])
def test_rejects_on_an_inversion_row(family, rank, word, mu, reason, rows):
    """Every q-row holds and inversions fail, one with slack zero and one negative, or
    one alone with slack zero: the first in root order is named, with the oracle's
    result.  In A4 the walk meets the other one, (1, 0, 0, 0), first."""
    cert = Certificate(family, rank, 1, "delta", qext(3), word, FORM_FORWARD,
                       tuple(map(qext, mu)))
    assert check_certificate(cert) == CheckResult(False, reason, rows) == oracle_check(cert)


# -- the trusted base ------------------------------------------------------------------


def test_checker_imports_only_exactnum_and_rootdata():
    """``checker.py`` imports from weyldl exactly these names: the numbers it reads from
    ``exactnum`` and the record base from ``rootdata``, no type data."""
    tree = ast.parse(Path(checker.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module.split(".")[0] == "weyldl":
                module = node.module.partition(".")[2]
            else:
                continue
            package.update((module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            package.update((a.name, None) for a in node.names
                           if a.name.split(".")[0] == "weyldl")
    assert package == {("exactnum", "IncompatibleRadicandError"), ("exactnum", "QuadExt"),
                       ("exactnum", "_check_radicand"), ("exactnum", "_make"),
                       ("exactnum", "_sign"), ("exactnum", "common_parts"),
                       ("exactnum", "integer_parts"),
                       ("rootdata", "Frozen")}


def test_only_the_checker_names_the_inverse_form():
    """No module of weyldl but ``checker`` names ``FORM_INVERSE`` or spells its wire
    tag: the checker reads the inverse form, and no route writes it."""
    naming = set()
    for path in sorted(Path(checker.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant) else None)
            if name in ("FORM_INVERSE", checker.FORM_INVERSE):
                naming.add(path.name)
    assert naming == {"checker.py"}


@pytest.mark.parametrize("family, rank", TYPES, ids=[f"{f}{n}" for f, n in TYPES])
def test_type_tables_are_rootdatas(family, rank, monkeypatch):
    """The checker's own root count, Dynkin links and twist maps are ``rootdata``'s:
    ``positive_root_count``, the off-diagonal entries of ``cartan_matrix``, and
    ``build_twist`` with its inverse for every order, or its message where the type
    has no twist of that order."""
    monkeypatch.setattr(checker, "_DESCRIPTORS", {})
    cartan = rootdata.cartan_matrix(family, rank)
    links = tuple(tuple((i, c) for i, c in enumerate(row) if c and i != a)
                  for a, row in enumerate(cartan))
    for order in range(5):
        try:
            twist = build_twist(family, rank, order)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                checker._descriptor(family, rank, order)
            continue
        count, walk_links, _, maps = checker._descriptor(family, rank, order)
        assert count == positive_root_count(family, rank)
        assert walk_links == links
        assert maps == {"delta": tuple(p - 1 for p in twist.perm),
                        "delta_inv": tuple(p - 1 for p in twist.inverse_perm)}


def test_type_tables_cover_every_type():
    """The tables above run over all 33 types of ``candidate_types`` through rank 8, and
    every other (family, rank) gets ``positive_root_count``'s message."""
    assert len(TYPES) == 33
    for family, rank in [("Z", 3), ("E", 5), ("B", 1), ("C", 1), ("D", 2), ("F", 3),
                         ("G", 4), ("AB", 2), ("", 1), ([], 2), (None, 4)]:
        with pytest.raises(ValueError) as expected:
            positive_root_count(family, rank)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            checker._root_count(family, rank)


def test_cold_descriptor_build_calls_no_rootdata_function(corpus, monkeypatch):
    """With every function and record constructor of ``rootdata`` but ``Frozen``'s
    disabled and the descriptor memo empty, exactly the valid corpus variants pass."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the checker called into rootdata")

    # Some variants read rootdata themselves, so they are made first.
    cases = [(cert, True) for cert in corpus]
    cases += [(variant(cert), valid) for cert in corpus for _, variant, valid in VARIANTS
              if valid is not None]
    for name, value in vars(rootdata).items():
        if inspect.isfunction(value) and value.__module__ == rootdata.__name__:
            monkeypatch.setattr(rootdata, name, forbidden)
    for record in (rootdata.RootSystem, rootdata.Twist):
        monkeypatch.setattr(record, "__init__", forbidden)
    monkeypatch.setattr(checker, "_DESCRIPTORS", {})
    for cert, valid in cases:
        assert check_certificate(cert).accepted == valid, cert
    assert len(checker._DESCRIPTORS) == 49


def test_corpus_checked_without_groups_or_root_closures(corpus, monkeypatch):
    """With group and root-closure builds disabled, exactly the valid certificates pass."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the checker built a Weyl group or a root closure")

    monkeypatch.setattr(weyl.WeylGroup, "__init__", forbidden)
    monkeypatch.setattr(rootdata, "_close_positive_roots", forbidden)
    monkeypatch.setattr(checker, "_DESCRIPTORS", {})
    for cert in corpus:
        assert check_certificate(cert).accepted, cert
        for name, variant, valid in VARIANTS:
            if valid is not None:
                assert check_certificate(variant(cert)).accepted == valid, (name, cert)


@pytest.mark.parametrize("family, rank, twist", [("A", 2, 5), ("A", 2, 1.5), ("G", 2, 3),
                                                 ("Z", 2, 1), ("A", 9, 1), ("A", 3, 2.0),
                                                 ("G", 2, True), ("A", 2, []), ([], 2, 1)])
def test_invalid_descriptor_is_not_memoized(family, rank, twist):
    """A rejected (family, rank, twist) leaves the descriptor memo as it was, also
    for a twist equal to a valid int and for a field that cannot be hashed."""
    before = dict(checker._DESCRIPTORS)
    cert = Certificate(family, rank, twist, "delta", qext(2), (1,), FORM_FORWARD,
                       (qext(1),) * rank)
    result = check_certificate(cert)
    assert not result and result == oracle_check(cert)
    assert checker._DESCRIPTORS == before


@pytest.mark.parametrize("fields", [{"w": None}, {"w": 5}, {"w": [2, 1, 2, 1]}, {"mu": None},
                                    {"mu": [qext(2), qext(1)]}],
                         ids=["w_none", "w_int", "w_list", "mu_none", "mu_list"])
def test_w_and_mu_must_be_tuples(fields):
    """A hand-built w or mu that is not a tuple gets a reason, not an exception."""
    cert = Certificate("G", 2, 1, "delta", qext(2), (2, 1, 2, 1), FORM_FORWARD, (qext(2), qext(1)))
    assert check_certificate(cert).accepted
    assert check_certificate(_with(cert, **fields)) == CheckResult(False, "w and mu must be tuples")


def test_hand_built_tuple_mu_checks_as_parsed(corpus):
    """A tuple mu built by hand from the wire text, equal to the parsed one, gets the parsed
    certificate's exact result: accepted as it stands, rejected when negated."""
    for cert in corpus:
        obj = cert.to_json_dict()
        for sign in (1, -1):
            obj["mu"] = [number_to_json(sign * x) for x in cert.mu]
            parsed = Certificate.from_json(json.dumps(obj))
            mu = tuple(fraction_from_json(x, 2) for x in obj["mu"])
            built = _with(parsed, mu=mu)
            assert built == parsed
            assert check_certificate(built) == check_certificate(parsed), built


def test_criterion_reexports_the_checker():
    """``criterion`` hands out the checker's own objects: one checker in the package.
    It does not hand out ``FORM_INVERSE``, the tag of a form no route writes."""
    from weyldl import criterion

    for name in ("check_certificate", "CheckResult", "FORM_FORWARD", "MAX_RANK",
                 "Certificate", "CertificateError", "FORMAT_VERSION"):
        assert getattr(criterion, name) is getattr(checker, name)
    assert not hasattr(criterion, "FORM_INVERSE")
    assert CheckResult.__module__ == "weyldl.checker"
    assert Certificate.__module__ == CertificateError.__module__ == "weyldl.checker"


# -- the certificate parser ------------------------------------------------------


def test_length_limit_at_the_boundary(corpus):
    """Text of exactly ``MAX_CERT_CHARS`` characters is parsed; one more is refused
    before it is read as JSON."""
    text = corpus[0].to_json().ljust(MAX_CERT_CHARS)
    assert len(text) == MAX_CERT_CHARS
    assert Certificate.from_json(text) == corpus[0]
    with pytest.raises(CertificateError, match=f"^certificate longer than {MAX_CERT_CHARS} "
                                               "characters$"):
        Certificate.from_json(text + " ")


def fraction_from_json(obj, version: int):
    """The ``Fraction``-based wire parser of format ``version``, 2 or 1, on the
    grammar's regex: the reference."""
    def parse(text, pattern=r"(-?[0-9]+)/([0-9]+)"):
        match = re.fullmatch(pattern, text) if isinstance(text, str) else None
        if match is None:
            raise ValueError("malformed rational: expected 'p/q'")
        num, den = int(match.group(1)), int(match.group(2) or 1)
        if den == 0:
            raise ValueError("malformed rational: zero denominator")
        return Fraction(num, den)

    if version == 2:
        rational = r"(-?[0-9]+)(?:/([0-9]+))?"
        if isinstance(obj, str):
            return QuadExt(parse(obj, rational))
        if not (isinstance(obj, list) and len(obj) == 3 and type(obj[2]) is int
                and obj[2] in (2, 3)):
            raise ValueError("malformed number: expected 'p/q' or [a, b, d] with d 2 or 3")
        a, b, d = obj
        return QuadExt(parse(a, rational), parse(b, rational), d)
    try:
        a, b, d = obj["a"], obj["b"], obj["d"]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed QuadExt payload") from exc
    if type(d) is not int:
        raise ValueError("malformed QuadExt radicand")
    return QuadExt(parse(a), parse(b), d)


def checker_number(obj, version: int) -> QuadExt:
    """The checker's number reader of format ``version``: ``number_from_json`` for 2,
    the format-1 reader that ``from_json_dict`` picks for 1."""
    return number_from_json(obj) if version == 2 else checker._make(*checker._number_v1(obj))


wire_ratios = st.one_of(
    st.builds("{}/{}".format, st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 6)),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(0, 12)),
    st.builds("-0/{}".format, st.integers(0, 9)),
    # The zero part every writer writes, which the reader takes without parsing, and its
    # neighbours, which it parses.
    st.sampled_from(["0/1", "-0/1", "0/01", "00/1", "0/0"]),
    st.sampled_from(["1", "1/-2", "+1/2", " 1/2", "1/2 ", "1.0/2", "\u0663/4", "--1/2", "",
                     "1" * 4400 + "/1", "1/" + "2" * 4400]),
    # Outside the grammar: halves that int() or str.isdigit() accept, and empty halves.
    st.sampled_from(["1_0/2", "1/1_0", "\uff11/2", "\u00b2/2", "-/2", "1/"]),
    st.text(alphabet="-/0123", max_size=6),
    st.integers(-3, 3),
    st.none(),
)
wire_radicands = st.one_of(st.sampled_from((1, 2, 3)), st.integers(-2, 6),
                           st.sampled_from((True, 2.0, "2", None)))


@given(wire_ratios, wire_ratios, wire_radicands)
@settings(max_examples=600, deadline=None)
def test_from_json_matches_fraction_parser(a, b, d):
    """Format 1: same value, or the same error text raised in the same order (a, then
    b, then d)."""
    obj = {"a": a, "b": b, "d": d}

    def result(parse):
        try:
            x = parse(obj, 1)
        except ValueError as exc:
            return ("error", str(exc))
        assert_canonical(x)
        return ("value", x._p, x._q, x._r, x._d)

    assert result(checker_number) == result(fraction_from_json)


wire_rationals = st.one_of(
    st.builds(str, st.integers(-10 ** 6, 10 ** 6)),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(0, 12)),
    wire_ratios,
    st.sampled_from(["0", "-0", "00", "+1", " 1", "1 ", "1_0", "\u0663", "\uff11", "\u00b2",
                     "-", "/2", "1e3", "1.5", "1" * 4400]),
)
wire_numbers = st.one_of(
    wire_rationals,
    st.builds(list, st.tuples(wire_rationals, wire_rationals, wire_radicands)),
    st.lists(wire_rationals | wire_radicands, max_size=4),
    st.fixed_dictionaries({"a": wire_rationals, "b": wire_rationals, "d": wire_radicands}),
    st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none(),
)


@given(wire_numbers)
@settings(max_examples=600, deadline=None)
def test_format_2_reader_matches_fraction_parser(obj):
    """Format 2: same value, or the same error text, on strings, arrays of any length
    and every other JSON value."""
    def result(parse):
        try:
            x = parse(obj, 2)
        except ValueError as exc:
            return ("error", str(exc))
        assert_canonical(x)
        return ("value", x._p, x._q, x._r, x._d)

    assert result(checker_number) == result(fraction_from_json)


@pytest.mark.parametrize("q,mu", [
    (2, (qext(2), qext(1))),
    (qext(2), (2, Fraction(1))),
    (Fraction(5, 2), (Fraction(4, 2), 1)),
])
def test_plain_numbers_write_read_back_equal_and_check(q, mu):
    """A hand-built certificate whose q or a mu coordinate is an int or a Fraction
    writes as if it held the equal QuadExt, reads back equal, and is accepted."""
    cert = Certificate("G", 2, 1, "delta", q, (2, 1, 2, 1), FORM_FORWARD, mu)
    exact = Certificate("G", 2, 1, "delta", qext(q), (2, 1, 2, 1), FORM_FORWARD,
                        tuple(map(qext, mu)))
    assert cert.to_json() == exact.to_json()
    back = Certificate.from_json(cert.to_json())
    assert back == cert
    assert check_certificate(back) == check_certificate(cert) == CheckResult(True, "", 6)


def test_bool_q_does_not_write():
    """True is no exact number: writing it raises TypeError."""
    cert = Certificate("G", 2, 1, "delta", True, (2, 1, 2, 1), FORM_FORWARD, (qext(2), qext(1)))
    with pytest.raises(TypeError):
        cert.to_json()
    with pytest.raises(TypeError):
        number_to_json(False)


def _dumps(cert: Certificate, version: int = 2) -> str:
    """The expected wire text: ``json.dumps`` of the reference's wire object in format
    ``version``."""
    return json.dumps(certificate_json(cert, version), separators=(",", ":"))


def test_w3_certificates_write_json_dumps_text():
    """All 360 W3 certificates write ``json.dumps``'s text of their wire object, written
    out by the reference, and read back equal."""
    count = 0
    for family, rank, order in RANK_LE_4:
        W, twist = group(family, rank), build_twist(family, rank, order)
        q = minimal_q(family, order)
        for cls in class_list(W, pi_of(twist)):
            for cert in (certify_min_element(W, twist, cls, q),
                         constructive_certificate(W, twist, cls, q)):
                text = cert.to_json()
                assert text == _dumps(cert), (family, rank, order, cert.w)
                assert Certificate.from_json(text) == cert
                count += 1
    assert count == 360


_HAND_BUILT = {
    "int_q": {"q": 2},
    "fraction_q": {"q": Fraction(5, 2), "mu": (Fraction(4, 2), 1)},
    "int_mu": {"mu": (2, 1)},
    "fraction_mu": {"mu": (Fraction(7, 3), Fraction(-1, 6))},
    "sqrt_q": {"q": SQRT2 * Fraction(3, 2), "mu": (SQRT2 + 1, Fraction(1, 3))},
    "quote_family": {"family": 'G"2'},
    "backslash_direction": {"direction": "delta\\inv"},
    "non_ascii_family": {"family": "G\u00e9"},
    "non_ascii_direction": {"direction": "\u03b4\u207b\u00b9 \U0001d53e"},
    "control_direction": {"direction": "delta\n\t\x00"},
    "bool_rank": {"rank": True},
    "float_rank": {"rank": 2.0},
    "bool_twist": {"twist": False},
    "float_twist": {"twist": 1.5},
    "list_w": {"w": [2, 1, 2, 1]},
    "bool_letter": {"w": (2, 1, True, 1)},
    "float_letter": {"w": (2.0, 1)},
    "empty_w": {"w": ()},
    "none_form": {"form": None},
}
# Fields of the wire's types: these read back as the certificate that wrote them.
_READS_BACK = {"int_q", "fraction_q", "int_mu", "fraction_mu", "sqrt_q", "quote_family",
               "backslash_direction", "non_ascii_family", "non_ascii_direction",
               "control_direction", "empty_w"}


@pytest.mark.parametrize("name", list(_HAND_BUILT))
def test_hand_built_certificate_writes_json_dumps_text(name):
    """A hand-built certificate writes ``json.dumps``'s text of its wire object, written
    out by the reference, and ``to_json_dict`` gives that object, whatever the type of a
    field: an int or Fraction number, a string with a quote, a backslash, a control or
    a non-ASCII character, a bool or float rank or twist, a list w or a letter that is
    not an int.  Those of the wire's types read back equal."""
    cert = Certificate(**{"family": "G", "rank": 2, "twist": 1, "direction": "delta",
                          "q": qext(2), "w": (2, 1, 2, 1), "form": FORM_FORWARD,
                          "mu": (qext(2), qext(1)), **_HAND_BUILT[name]})
    text = cert.to_json()
    assert text == _dumps(cert) and text.isascii()
    assert cert.to_json_dict() == certificate_json(cert)
    if name in _READS_BACK:
        assert Certificate.from_json(text) == cert


@pytest.mark.parametrize("mu", [(qext(2), True), (False, qext(1))])
def test_bool_mu_does_not_write(mu):
    """A bool coordinate is no exact number: writing it raises TypeError."""
    cert = Certificate("G", 2, 1, "delta", qext(2), (2, 1, 2, 1), FORM_FORWARD, mu)
    with pytest.raises(TypeError):
        cert.to_json()


# -- the integer reader against twins built in process --------------------------------


def _benchmark_worker():
    """``perfbench/worker.py``, for the tamper kinds of the ``check`` workload."""
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  ROOT / "perfbench" / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unreduced(text: str, rng: random.Random) -> str:
    """``text`` with every half of every number p/q written as (k p)/(k q), k in 1..6."""
    def scale(half):
        p, q = map(int, half.split("/"))
        k = rng.randint(1, 6)
        return f"{k * p}/{k * q}"

    def number(x):
        return {"a": scale(x["a"]), "b": scale(x["b"]), "d": x["d"]}

    obj = json.loads(text)
    obj["q"], obj["mu"] = number(obj["q"]), [number(x) for x in obj["mu"]]
    return json.dumps(obj, separators=(",", ":"))


def _wire_texts() -> list[tuple[str, str]]:
    """(id, text): every corpus certificate, each tamper kind of the ``check`` benchmark
    applied to each, each written with unreduced halves, and the hostile certificates of
    ``test_criterion``."""
    worker = _benchmark_worker()
    kinds = [*worker.Check.TAMPER_COUNTS, *worker.Check.HOSTILE_COUNTS]
    rng = random.Random(0)
    texts = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        texts.append((entry["id"], entry["cert"]))
        texts += [(f"{entry['id']}~{kind}", worker._tamper(kind, entry["cert"], rng))
                  for kind in kinds]
        texts.append((f"{entry['id']}~unreduced", _unreduced(entry["cert"], rng)))
    base = Certificate("G", 2, 1, "delta", qext(2), (2, 1, 2, 1), FORM_FORWARD,
                       (qext(2), qext(1)))
    for name, mutate, _ in HOSTILE:
        obj = base.to_json_dict()
        mutate(obj)
        texts.append((name, json.dumps(obj)))
    return texts


def _twin(text: str) -> Certificate:
    """The certificate of ``text`` built in process: its fields as ``json.loads`` reads
    them, its numbers from ``fraction_from_json``, the regex reference."""
    obj = json.loads(text)
    grp, version = obj["group"], obj["format_version"]
    return Certificate(grp["family"], grp["rank"], grp["twist"], obj["direction"],
                       fraction_from_json(obj["q"], version), tuple(obj["w"]), obj["form"],
                       tuple(fraction_from_json(x, version) for x in obj["mu"]))


def test_wire_certificates_check_as_their_twins():
    """Read from the wire, a certificate equals its twin built in process and hashes
    alike, gets the twin's and the oracle's result, holds numbers that ``common_parts``
    puts over the ints ``integer_parts`` gives for the twin (where sqrt 2 meets sqrt 3,
    both raise), and writes the twin's text, the reference's format-2 text, which reads
    back to it.  Text from the benchmark, in format 1, is the reference's format-1
    text of what it reads, byte for byte, and text with unreduced halves is written
    in the reduced form.  The reader refuses the hostile
    certificates meant to be refused, and besides them only text whose twin cannot be
    built."""
    texts = _wire_texts()
    assert len(texts) == 414 * 9 + len(HOSTILE)
    hostile = {name for name, _, _ in HOSTILE}
    refuse = {name for name, _, reason in HOSTILE if reason is None}
    refused = mixed = 0
    kept = []
    for name, text in texts:
        try:
            cert = Certificate.from_json(text)
        except CertificateError:
            refused += 1
            if name not in refuse:
                with pytest.raises(ValueError):
                    _twin(text)
            continue
        assert name not in refuse
        twin = _twin(text)
        assert cert == twin and hash(cert) == hash(twin), name
        assert check_certificate(cert) == check_certificate(twin) == oracle_check(twin), name
        try:
            parts = integer_parts([twin.q, *twin.mu])
        except IncompatibleRadicandError:
            mixed += 1
            with pytest.raises(IncompatibleRadicandError):
                common_parts(cert._parts)
        else:
            assert common_parts(cert._parts) == parts, name
        if len(twin.mu) != twin.rank:
            kept.append(name)
        out = cert.to_json()
        assert out == twin.to_json() == _dumps(twin) and Certificate.from_json(out) == cert, name
        if name not in hostile and not name.endswith("~unreduced"):
            assert _dumps(cert, 1) == text, name
    # The truncated texts and the huge coordinates of the benchmark, and the hostile ones.
    assert refused == 2 * 414 + len(refuse)
    assert mixed == 2
    # A mu of another length: the benchmark's tamper kind, and hostile certificates.
    assert sum(name.endswith("~mu_wrong_length") for name in kept) == 414
    assert {name for name in kept if "~" not in name} <= hostile


def test_long_mu_is_rejected_without_one_denominator():
    """Text under ``MAX_CERT_CHARS`` whose mu holds 120 coordinates over pairwise coprime
    denominators of 1000 digits is rejected for mu's rank in a small time budget: the
    checker rejects mu's length before it puts the numbers over one denominator.  Put
    over one denominator, the 120 would take seconds."""
    primes = [p for p in range(2, 700) if all(p % k for k in range(2, p))][:120]
    base = Certificate("G", 2, 1, "delta", qext(2), (2, 1, 2, 1), FORM_FORWARD,
                       (qext(2), qext(1)))
    obj = base.to_json_dict()
    obj["mu"] = [f"1/{p ** math.ceil(1000 / math.log10(p))}" for p in primes]
    text = json.dumps(obj)
    assert len(primes) == 120 and len(text) < MAX_CERT_CHARS
    start = time.perf_counter()
    cert = Certificate.from_json(text)
    result = check_certificate(cert)
    elapsed = time.perf_counter() - start
    assert result == CheckResult(False, "mu has wrong rank")
    assert len(cert.mu) == 120
    assert elapsed < 1.0


# -- the two wire formats ------------------------------------------------------------

_G2 = Certificate("G", 2, 1, "delta", qext(2), (2, 1, 2, 1), FORM_FORWARD, (qext(2), qext(1)))
_SQRT_MU = ("-1/2", "1", 2)  # -1/2 + sqrt 2, a little under 1

# (id, a value put where format 2 wants a number, the start of the reason).
HOSTILE_NUMBERS = [
    ("json_int", 2, "malformed number"),
    ("json_float", 2.0, "malformed number"),
    ("json_bool", True, "malformed number"),
    ("json_null", None, "malformed number"),
    ("zero_denominator", "1/0", "malformed rational: zero denominator"),
    ("plus_sign", "+1", "malformed rational"),
    ("underscore", "1_0", "malformed rational"),
    ("leading_space", " 1", "malformed rational"),
    ("trailing_slash", "1/", "malformed rational"),
    ("arabic_indic_digit", "٢", "malformed rational"),
    ("fullwidth_digit", "２", "malformed rational"),
    ("superscript_digit", "²", "malformed rational"),
    ("exponent", "1e3", "malformed rational"),
    ("array_of_2", ["-1/2", "1"], "malformed number"),
    ("array_of_4", [*_SQRT_MU, 2], "malformed number"),
    ("radicand_1", ["-1/2", "1", 1], "malformed number"),
    ("radicand_4", ["-1/2", "1", 4], "malformed number"),
    ("radicand_true", ["-1/2", "1", True], "malformed number"),
    ("radicand_string", ["-1/2", "1", "2"], "malformed number"),
    ("radicand_float", ["-1/2", "1", 2.0], "malformed number"),
    ("int_part", [1, "1", 2], "malformed rational"),
    ("float_part", ["-1/2", 1.0, 2], "malformed rational"),
    ("bool_part", ["-1/2", False, 2], "malformed rational"),
    ("bad_part", ["-1/2", "+1", 2], "malformed rational"),
    ("format_1_rational", {"a": "2/1", "b": "0/1", "d": 1}, "malformed number"),
    ("format_1_sqrt", {"a": "1/2", "b": "3/1", "d": 2}, "malformed number"),
]


@pytest.mark.parametrize("field", ["q", "mu"])
@pytest.mark.parametrize("value, reason", [h[1:] for h in HOSTILE_NUMBERS],
                         ids=[h[0] for h in HOSTILE_NUMBERS])
def test_format_2_refuses_what_is_no_number(field, value, reason):
    """In format-2 text, a value outside the number grammar, put in place of q or of a
    coordinate of mu, is refused by ``CertificateError`` with its reason: a JSON number
    or bool for a string, a rational with a sign, space, underscore, exponent or digit
    that is not ASCII, an array of another length or radicand, and a number of
    format 1.  The certificate with a sqrt coordinate in its place is accepted."""
    obj = _G2.to_json_dict()
    obj["mu"][1] = list(_SQRT_MU)
    assert check_certificate(Certificate.from_json(json.dumps(obj)))
    if field == "q":
        obj["q"] = value
    else:
        obj["mu"][1] = value
    with pytest.raises(CertificateError, match=f"^malformed certificate: {re.escape(reason)}"):
        Certificate.from_json(json.dumps(obj))


@pytest.mark.parametrize("value", ["2", "2/1", ["0", "1", 2], 2],
                         ids=["integer", "fraction", "sqrt", "json_int"])
def test_format_1_refuses_a_format_2_number(value):
    """In format-1 text, a number of format 2 is refused with the reason of format 1."""
    obj = certificate_json(_G2, 1)
    assert check_certificate(Certificate.from_json(json.dumps(obj)))
    obj["mu"][0] = value
    with pytest.raises(CertificateError, match="^malformed certificate: malformed QuadExt payload$"):
        Certificate.from_json(json.dumps(obj))


@pytest.mark.parametrize("version", [0, 3, 2.0, True, "2", None])
def test_unknown_format_version_is_refused(version):
    """Only the ints 1 and 2 name a format; 2.0 and True equal one of them in Python."""
    obj = _G2.to_json_dict()
    obj["format_version"] = version
    with pytest.raises(CertificateError, match=f"^unsupported format_version {re.escape(repr(version))}$"):
        Certificate.from_json(json.dumps(obj))


# sha256 of one line "<id>\t<verdict>" per item of the ``check`` benchmark at seed 1, in
# its order: "accept (n rows)", "reject: <reason>", or "error: <CertificateError>";
# recorded from the code before format 2.
CHECK_VERDICTS_SHA256 = "fc812f6f953e5b39721d2162d83f3a09be395c37af4320ac4d31d3be03c9b6a1"


def test_format_1_corpus_keeps_its_verdicts():
    """The ``check`` benchmark's 414 corpus certificates, all format-1 text, are
    accepted, and its 130 tampered and hostile variants get the verdicts and reasons
    they got before format 2.  Each corpus certificate written in format 2 is accepted
    with the same row count, in at most 60 % of the bytes."""
    items = _benchmark_worker().Check(random.Random(1)).items
    lines, kinds, old_size, new_size = [], {}, 0, 0
    for name, text, valid in items:
        try:
            cert = Certificate.from_json(text)
        except CertificateError as exc:
            verdict = f"error: {exc}"
        else:
            result = check_certificate(cert)
            verdict = f"accept ({result.rows_checked} rows)" if result else f"reject: {result.reason}"
            if valid:
                assert json.loads(text)["format_version"] == 1
                out = cert.to_json()
                assert check_certificate(Certificate.from_json(out)) == result, name
                old_size, new_size = old_size + len(text), new_size + len(out)
        assert verdict.startswith("accept") == valid, (name, verdict)
        kind = verdict.partition(" ")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
        lines.append(f"{name}\t{verdict}\n")
    assert kinds == {"accept": 414, "reject:": 100, "error:": 30}
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == CHECK_VERDICTS_SHA256
    assert new_size <= 0.6 * old_size

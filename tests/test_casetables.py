import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyldl import casetables, conjugacy
from weyldl.casetables import (
    AggregateReport,
    CaseReport,
    _always_satisfied,
    _resolve_v_options,
    place_row,
    verify_all,
    verify_case,
)
from weyldl.catalog import CaseRecord, br, bri, case_records, load_case_records, type_group
from weyldl.conjugacy import class_list, class_of, cuspidal_representatives
from weyldl.criterion import MAX_RANK, IneqSystem, check_certificate
from weyldl.exactnum import SQRT2, SQRT3, QuadExt, qext
from weyldl.subsystems import sub_context
from weyldl.weyl import WeylGroup, weyl_group

from lp_oracle import rows_of
from multiply_oracles import enumerate_delta_classes, oracle_class_of, weyl_order

SRC = str(Path(__file__).resolve().parent.parent / "src")

# sha256 of the fields of every catalog row, in catalog order (see
# ``test_rows_are_the_pinned_catalog``).
CATALOG_ROWS_SHA256 = "a3a188f88438fa45f224951f6709d50ebbdd608eaa20922d2a49b68cd88ff485"

# (family, rank, twist) of every catalog type, in catalog order.
CATALOG_TYPES = list(dict.fromkeys((r.family, r.rank, r.twist) for r in load_case_records()))


def by_label(records, label):
    return next(r for r in records if r.label == label)


def tampered(record, **changes):
    """``record`` rebuilt with the given fields changed."""
    fields = {name: getattr(record, name) for name in CaseRecord.__slots__}
    return CaseRecord(**{**fields, **changes})


@pytest.fixture(scope="module")
def records():
    return load_case_records()


class TestLoad:
    def test_counts_per_type(self, records):
        def count(prefix):
            return sum(1 for r in records if r.label.startswith(prefix + " "))

        assert count("F4") == 7
        assert count("2F4") == 6
        assert count("G2") == 3
        assert count("2G2") == 3
        assert count("2B2") == 2
        assert count("3D4") == 3
        assert count("E6") == 4
        assert count("2E6") == 8
        assert count("E7") == 9
        assert count("E8") == 17

    def test_e8_spade_marked(self, records):
        rec = by_label(records, "E8 case 12")
        assert rec.spade
        assert rec.v_lengths == (12, 14, 16, 18, 36)

    def test_parametric_families(self, records):
        a_cases = [r for r in records if r.label.startswith("2A4 ")]
        assert [r.param_a for r in a_cases] == [1, 2, 3]
        b_cases = [r for r in records if r.label.startswith("B5 ")]
        assert len(b_cases) == 5  # a = 1..4 plus case 2

    def test_labels_are_distinct(self, records):
        assert len(records) == 213
        assert len({r.label for r in records}) == 213

    def test_spade_set(self, records):
        spades = sorted(r.label for r in records if r.spade)
        assert spades == [
            "2F4 case 2", "2F4 case 4", "E8 case 12", "F4 case 3", "G2 case 1",
        ]

    def test_rows_are_the_pinned_catalog(self, records):
        """Every field of every row, in catalog order, hashes to the digest
        pinned when the rows moved out of ``casetables`` into ``catalog``."""

        def plain(value):
            if isinstance(value, frozenset):
                return sorted(value)
            if isinstance(value, dict):
                return sorted(value.items())
            if isinstance(value, tuple):
                return [plain(x) for x in value]
            return value

        rows = [[(name, plain(getattr(r, name))) for name in CaseRecord.__slots__] for r in records]
        text = json.dumps(rows, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CATALOG_ROWS_SHA256

    def test_case_records_by_type(self, records):
        """Each type's rows carry that type, and the catalog lists them type by type."""
        assert len(CATALOG_TYPES) == 49
        for t in CATALOG_TYPES:
            rows = case_records(*t)
            assert rows and all((r.family, r.rank, r.twist) == t for r in rows), t
        assert records == [r for t in CATALOG_TYPES for r in case_records(*t)]
        assert case_records("A", MAX_RANK + 1, 1) == []

    def test_case_records_are_built_once(self):
        """Each call for a type returns the one list built for it; a type without
        rows gets an empty list."""
        for t in CATALOG_TYPES:
            assert case_records(*t) is case_records(*t)
        assert case_records("G", 2, 3) == []

    def test_2e6_case8_rep_is_longest(self, records):
        rec = by_label(records, "2E6 case 8")
        W = weyl_group("E", 6)
        v = W.from_word(rec.v_words[0])
        w1 = W.from_word(rec.w1)
        assert W.multiply(v, w1) == W.longest_element(range(1, 7))


class TestVerifySmall:
    @pytest.mark.parametrize(
        "label",
        ["G2 case 1", "G2 case 2", "G2 case 3", "2B2 case 1", "2B2 case 2",
         "2G2 case 1", "2G2 case 2", "2G2 case 3", "3D4 case 1", "3D4 case 2",
         "3D4 case 3", "F4 case 1", "F4 case 3", "F4 case 7", "2F4 case 2",
         "2F4 case 4", "2F4 case 6", "B3 case 2", "2A3 case 1 a=2",
         "D4 case 2", "2D4 case 3"],
    )
    def test_case_passes(self, records, label):
        report = verify_case(by_label(records, label))
        assert report.passed, (label, report.subchecks, report.details)

    def test_f4_case1_star_values(self, records):
        rec = by_label(records, "F4 case 1")
        assert rec.m_values == {1: 1, 2: 1, 3: 5, 4: 3}
        report = verify_case(rec, q=qext(2))
        assert report.subchecks["star"] == "pass"

    def test_f4_case3_spade_details(self, records):
        report = verify_case(by_label(records, "F4 case 3"))
        assert report.certificate is not None
        assert check_certificate(report.certificate)
        assert report.details["infeasibility_witness"]

    def test_2f4_case4_pinned_point(self, records):
        report = verify_case(by_label(records, "2F4 case 4"))
        assert report.details.get("pinned_mu_check") == "pass"

    def test_2b2_above_minimal_q(self, records):
        # Monotone rows keep the witness valid at 2*sqrt2.
        report = verify_case(by_label(records, "2B2 case 1"), q=SQRT2 * 2)
        assert report.subchecks["star"] == "pass"

    def test_below_minimal_q_is_an_error(self, records):
        """No row need hold below the type's minimum, so no subcheck is run; a q
        over another square root is compared with the minimum exactly."""
        record = by_label(records, "2B2 case 1")
        for q in (qext(1), SQRT3 / 2):
            with pytest.raises(ValueError, match="^q below the minimal value for B2 twist 2$"):
                verify_case(record, q=q)
        assert verify_case(record, q=SQRT3).passed

    def test_spade_above_minimal_q_becomes_feasible(self, records):
        report = verify_case(by_label(records, "G2 case 1"), q=qext(4))
        assert report.subchecks["star"] == "pass"
        assert report.details.get("star_note") == "feasible above minimal q"

    def test_feasible_star_system_without_variables(self):
        """With K every node, the star system has no variables, and the simplex's
        point is the empty tuple: a feasible system, not an infeasible one."""
        record = CaseRecord(family="G", rank=2, twist=1, case=1, J=frozenset({1, 2}), w1=(),
                            K_expected=frozenset({1, 2}), spade=True)
        report = verify_case(record, q=qext(4))
        assert report.subchecks["star"] == "pass"
        assert report.details["star_note"] == "feasible above minimal q"

    def test_always_satisfied_row_fails_on_a_negative_star_row(self, records):
        """A non-spade row without a printed witness claims that every positive
        point satisfies its reduction system.  A2 case 1 has a star row with a
        negative coefficient, so without its witness the row fails, although
        the system is feasible."""
        rec = by_label(records, "A2 case 1")
        assert verify_case(rec).subchecks["star"] == "pass"
        report = verify_case(tampered(rec, m_values=None))
        assert report.subchecks["star"] == "fail"
        assert report.details["star_note"] == "some row fails at a positive point"


@pytest.mark.parametrize("label,changes,subcheck,detail,value", [
    ("F4 case 1", {"m_values": {1: 1, 2: 1, 3: 1, 4: 1}}, "star", "star_violated", ["q-row i=3"]),
    ("F4 case 1", {"m_values": {1: 1, 2: 1, 3: 5}}, "star", "star_missing_vars", [4]),
    ("E6 case 3", {"v_words": ((3,), (1,))}, "v_min_inner", "v_outside_WK", [[1]]),
    ("2F4 case 4", {"pinned_mu": (1, 1, 1, 1)}, "star", "pinned_mu_check", "fail"),
    ("G2 case 2", {"spade": True, "m_values": None}, "star", "star_note",
     "expected infeasible at minimal q"),
])
def test_tampered_row_fails(records, label, changes, subcheck, detail, value):
    """A row rebuilt with one field changed fails the subcheck that reads the
    field, and the report names what failed."""
    report = verify_case(tampered(by_label(records, label), **changes))
    assert report.subchecks[subcheck] == "fail"
    assert report.details[detail] == value


_PASSED = {"coset_rep": "pass", "K_match": "pass", "star": "pass", "v_min_inner": "pass",
           "vw1_min_full": "pass", "cuspidal": "pass"}
_A2_STEP = {"coset_rep": "pass", "K_match": "pass", "star": "fail", "v_min_inner": "pass",
            "vw1_min_full": "pass", "cuspidal": "fail"}


@pytest.mark.parametrize("label,changes,subchecks,details", [
    # v = s2 s3 spelled with a cancelling pair outside K = {2, 3}: inside W_K.
    ("F4 case 5", {"v_words": ((1, 1, 2, 3), (2, 3, 4, 4, 2, 3))}, _PASSED,
     {"K_computed": [2, 3], "v_count": 2, "v_minimal_products": 2}),
    # s1 s2 s1 s2 = s2 s1 has letter 1 in every word.
    ("F4 case 5", {"v_words": ((2, 3), (1, 2, 1, 2))},
     {**_PASSED, "v_min_inner": "fail", "vw1_min_full": "fail"},
     {"K_computed": [2, 3], "v_count": 2, "v_minimal_products": 1, "v_outside_WK": [[1, 2, 1, 2]]}),
    ("F4 case 5", {"w1": (4, 3, 2, 1, 3, 2, 4, 3, 2, 1, 3, 3)}, _PASSED,
     {"K_computed": [2, 3], "v_count": 2, "v_minimal_products": 2}),
    ("F4 case 5", {"w1": (4, 4, 4, 3, 2, 1, 3, 2, 4, 3, 2, 1), "v_words": ((2, 1, 1, 3),)}, _PASSED,
     {"K_computed": [2, 3], "v_count": 1, "v_minimal_products": 1}),
    # w1 = s1 s2 s2 = s1, whose support is {1}: not cuspidal in A2.
    (None, {"w1": (1, 2, 2)}, _A2_STEP,
     {"K_computed": [], "star_note": "some row fails at a positive point", "v_count": 1,
      "v_minimal_products": 1}),
])
def test_words_that_are_not_reduced(records, label, changes, subchecks, details):
    """A row whose v word or w1 word is not reduced gets the report of the
    elements, not of the letters spelled: the supports of v and of v w1, and
    v in W_K, come from a reduced word peeled off the element's key."""
    row = CaseRecord("A", 2, 1, 1, frozenset(), (), frozenset()) if label is None else (
        by_label(records, label))
    report = verify_case(tampered(row, **changes))
    assert report.subchecks == subchecks
    assert report.details == details


def test_row_placement_inner_falls_back_to_the_element(records):
    """A word of v that is not reduced, with letters outside K, gives v by its key and
    no word; a reduced one gives v from its labels in W_K, and those labels."""
    row = by_label(records, "F4 case 5")
    W, pi = type_group(row.family, row.rank, row.twist)
    placed = place_row(W, pi, row.J, row.w1)
    assert placed.K == {2, 3}
    v = W.from_word((1, 1, 2, 3))  # s2 s3
    G, sigma, y, word = placed.inner(v, (1, 1, 2, 3))
    assert (G, sigma, y, word) == placed.inner(v)
    assert word == ()
    G, sigma, y, word = placed.inner(v, (2, 3))
    assert word == sub_context(W, placed.K).word_to_sub((2, 3)) and y == G.from_word(word)


@pytest.mark.parametrize("label", ["F4 case 3", "E8 case 12"])
def test_inner_options_become_elements_once(records, label, monkeypatch):
    """``verify_case`` turns each inner option's word into an element of W once:
    the spade search and subchecks (iv)-(vi) read the same (vw, v, v w1)."""
    row = by_label(records, label)
    W, pi = type_group(row.family, row.rank, row.twist)
    words, problem = _resolve_v_options(row, place_row(W, pi, row.J, row.w1))
    assert row.spade and words and problem is None
    calls, from_word = [], WeylGroup.from_word

    def counted(self, word):
        if self is W:
            calls.append(tuple(word))
        return from_word(self, word)

    monkeypatch.setattr(WeylGroup, "from_word", counted)
    assert verify_case(row).passed
    assert {vw: calls.count(vw) for vw in words} == dict.fromkeys(words, 1)


def _always_by_rows(system):
    """The rule on the exact rows with q folded in: each row >= 0 and nonzero."""
    return all(all(c.sign() >= 0 for c in row) and any(c.sign() > 0 for c in row)
               for row in rows_of(system))


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=5))
    qcols = tuple(draw(st.integers(-1, n - 1)) for _ in rows)
    a = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 3)))
    b = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
    q = QuadExt(a, b, draw(st.sampled_from([2, 3]))) if draw(st.booleans()) else qext(a)
    return IneqSystem(tuple(range(1, n + 1)), q, tuple(rows), qcols, tuple(range(len(rows))))


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_always_satisfied_reads_the_integer_rows(system):
    """The "always satisfied" decision from coeffs, qcols and q is the rule on
    the exact rows, also where a q cell q + c is zero or negative."""
    assert _always_satisfied(system) == _always_by_rows(system)


def test_type_group_is_built_once_per_type():
    """Every row of a type shares one group and one inverse-twist map."""
    W, pi = pair = type_group("E", 6, 2)
    assert type_group("E", 6, 2) is pair
    assert W is weyl_group("E", 6)
    assert pi == {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}


@pytest.mark.parametrize("cached", [case_records, type_group], ids=["case_records", "type_group"])
def test_cached_type_tables_take_positional_arguments_only(cached):
    """A cache keyed on how the arguments are passed would build a second copy for a
    keyword call: two positional calls share one object, and a keyword call raises."""
    assert cached("G", 2, 1) is cached("G", 2, 1)
    with pytest.raises(TypeError):
        cached(family="G", rank=2, twist=1)


class TestAggregate:
    def test_g2_filter(self):
        report = verify_all(type_filter="G2")
        assert len(report.cases) == 3
        assert report.all_passed
        lines = report.summary_lines()
        assert lines[-1] == "total: 3/3 cases pass; subchecks: 18 pass, 0 skipped, 0 fail"

    def test_json_deterministic(self):
        a = verify_all(type_filter="2B2").to_json()
        b = verify_all(type_filter="2B2").to_json()
        assert a == b
        payload = json.loads(a)
        assert [c["label"] for c in payload["cases"]] == ["2B2 case 1", "2B2 case 2"]
        assert set(payload["cases"][0]["subchecks"]) == {
            "coset_rep", "K_match", "star", "v_min_inner", "vw1_min_full", "cuspidal",
        }

    def test_filter_excludes_twisted_prefix(self):
        report = verify_all(type_filter="F4")
        assert len(report.cases) == 7

    def test_labels_begin_with_type_name(self, records):
        assert all(r.label.startswith(r.type_name + " case ") for r in records)

    def test_filter_selects_label_prefix(self, records, monkeypatch):
        """For "" and every prefix of every label, the filter picks exactly the
        rows whose label starts with it, in catalog order."""
        monkeypatch.setattr(casetables, "verify_case", lambda r, **kw: CaseReport(r.label))
        prefixes = {""} | {r.label[:k] for r in records for k in range(1, len(r.label) + 1)}
        for f in sorted(prefixes):
            selected = [c.label for c in verify_all(type_filter=f).cases]
            assert selected == [r.label for r in records if r.label.startswith(f)], f

    def test_filter_builds_only_matching_types(self):
        """verify_all(type_filter="G2") builds the G2 group and no other named
        group.  Run in a fresh interpreter: the group memo is process-global."""
        program = (
            "from weyldl import weyl\n"
            "from weyldl.casetables import verify_all\n"
            "assert len(verify_all(type_filter='G2').cases) == 3\n"
            "print(sorted(weyl._GROUPS))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[('G', 2)]"


def test_inner_cuspidal_matches_enumeration(records):
    """For every (K, sigma) that a catalog row places, with 0 < |K| <= 6, the
    inner options are the cuspidal representatives of the enumerated partition
    of the standalone W_K, word for word."""
    placements = {}
    for rec in records:
        W, pi_inv = type_group(rec.family, rec.rank, rec.twist)
        placed = place_row(W, pi_inv, rec.J, rec.w1)
        if placed and 0 < len(placed.K) <= 6:
            sub = sub_context(W, placed.K)
            pi = placed.sigma
            placements[(sub.system.key, tuple(sorted(pi.items())))] = (sub, pi, placed)
    assert placements
    for sub, pi, placed in placements.values():
        expected = [c.representative.word for c in enumerate_delta_classes(sub.group, pi) if c.cuspidal]
        assert [v.word for v in cuspidal_representatives(sub.group, pi)] == expected
        assert placed.inner_cuspidal() == [sub.word_to_ambient(w) for w in expected]


def test_verify_all_partitions_nothing():
    """verify_all() and verify_all(slow=True) pass without listing the classes
    of any group: the class-list memo stays empty.  The slow tier decides the
    size-7 inner node sets too, so only the 5 rows that pair with no inner
    class at their rank stay skipped.  Run in a fresh interpreter: the memo
    is process-global."""
    program = (
        "from weyldl import conjugacy\n"
        "from weyldl.casetables import verify_all\n"
        "for slow in (False, True):\n"
        "    report = verify_all(slow=slow)\n"
        "    assert report.all_passed\n"
        "    print(len(conjugacy._CLASS_MEMO))\n"
        "    print(report.summary_lines()[-1])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "0", "total: 213/213 cases pass; subchecks: 1172 pass, 106 skipped, 0 fail",
        "0", "total: 213/213 cases pass; subchecks: 1273 pass, 5 skipped, 0 fail",
    ]


def test_verify_all_walks_no_level_again(monkeypatch):
    """Over a cold ``verify_all()``, no shift walk starts at an element that an
    earlier walk met and then ended without a descent: such a walk proves its
    whole level minimal, and the minimality memo keeps the level under the key
    of every member."""
    for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO"):
        monkeypatch.setattr(conjugacy, memo, {})
    real_walk = conjugacy._shift_walk
    starts, again, levelled = [], [], set()

    def walk(W, pi, w, word=()):
        where = (W.system.key, tuple(sorted(pi.items())))
        starts.append(w.key)
        if (where, w.key) in levelled:
            again.append((W.system.family, w.word))
        met, descended = {w.key}, False
        for shift in real_walk(W, pi, w, word):
            met |= {shift[0], shift[3]}
            descended = descended or shift[4] != 0
            yield shift
        if not descended:
            levelled.update((where, key) for key in met)

    monkeypatch.setattr(conjugacy, "_shift_walk", walk)
    assert verify_all().all_passed
    assert starts and levelled
    assert again == []


def test_verify_all_walks_start_from_held_words(monkeypatch):
    """Over a cold ``verify_all()``, no shift walk inverts its start element
    (``WeylGroup.invert``, a full peel): subcheck (v) hands the walk its word
    v w1, subcheck (iv) the word of v in the standalone W_K that
    ``RowPlacement.inner`` builds v from, and the class machinery the words
    of its seeds and of the members it conjugates."""
    for memo in ("_MINIMALITY_MEMO", "_CLASS_MEMO", "_CUSPIDAL_MEMO"):
        monkeypatch.setattr(conjugacy, memo, {})
    real_walk, real_invert = conjugacy._shift_walk, WeylGroup.invert
    starts, inverted = [], []

    def walk(W, pi, w, word=()):
        starts.append(w.key)
        return real_walk(W, pi, w, word)

    def invert(self, w):
        if sys._getframe(1).f_code is real_walk.__code__:
            inverted.append(w.key)
        return real_invert(self, w)

    monkeypatch.setattr(conjugacy, "_shift_walk", walk)
    monkeypatch.setattr(WeylGroup, "invert", invert)
    assert verify_all().all_passed
    assert len(starts) > 100 and inverted == []


COVERAGE_TYPES = [t for t in CATALOG_TYPES if t[1] <= 6]


class TestCoverage:
    def test_types_through_rank_6(self):
        assert len(COVERAGE_TYPES) == 35

    @pytest.mark.parametrize("family,rank,twist", COVERAGE_TYPES)
    def test_minimal_coverage(self, family, rank, twist):
        """Each cuspidal class receives a minimal representative from a row's
        inner options, as the verifier resolves them."""
        W, pi = type_group(family, rank, twist)
        cusp = [c for c in class_list(W, pi) if c.cuspidal]
        covered = {c.representative: False for c in cusp}
        for rec in case_records(family, rank, twist):
            placed = place_row(W, pi, rec.J, rec.w1)
            assert placed is not None, rec.label
            vws, problem = _resolve_v_options(rec, placed)
            assert problem is None, (rec.label, problem)
            for vw in vws:
                w = W.multiply(W.from_word(vw), placed.w1)
                cls = class_of(W, pi, w)
                if cls.cuspidal and w.length == cls.min_length:
                    covered[cls.representative] = True
        missing = [rep.word for rep, ok in covered.items() if not ok]
        assert not missing, missing


def _verdicts_by_enumeration(record):
    """Criteria (iv)-(vi) of one row, read off enumerated class partitions."""
    W, pi = type_group(record.family, record.rank, record.twist)
    placed = place_row(W, pi, record.J, record.w1)
    v_words, problem = _resolve_v_options(record, placed)
    assert problem is None, problem
    inner, full, cuspidal = [], [], []
    for vw in v_words:
        v = W.from_word(vw)
        if placed.K and W.support(v) <= placed.K:
            cls = oracle_class_of(*placed.inner(v)[:3])
            inner.append(cls.min_length == v.length)
        else:
            inner.append(not placed.K)
        w = W.multiply(v, placed.w1)
        cls = oracle_class_of(W, pi, w)
        full.append(cls.min_length == w.length)
        cuspidal.append(cls.cuspidal)
    if record.v_mode == "all":
        v_verdict = "pass" if any(full) else "skipped(row pairs with no inner class at this rank)"
    else:
        v_verdict = "pass" if all(full) else "fail"
    verdicts = {
        "v_min_inner": "pass" if all(inner) else "fail",
        "vw1_min_full": v_verdict,
        "cuspidal": "pass" if all(cuspidal) else "fail",
    }
    return verdicts, sum(full)


SMALL_GROUP_ROWS = [
    r.label for r in load_case_records()
    if weyl_order(r.family, r.rank) <= 10 ** 4
]


@pytest.mark.parametrize("label", SMALL_GROUP_ROWS)
def test_closure_verdicts_match_enumeration(records, label):
    """On groups of at most 10^4 elements, enumeration gives the report's (iv)-(vi)."""
    record = by_label(records, label)
    expected, minimal_products = _verdicts_by_enumeration(record)
    report = verify_case(record)
    assert {k: report.subchecks[k] for k in expected} == expected
    assert report.details["v_minimal_products"] == minimal_products


def test_K_is_the_greatest_stable_set(records):
    """For each row, K = I(J, w1, tau) is kept by Ad(w1) tau and no node set
    strictly between K and J is: every T with K < T <= J has a node k with
    simple_image(w1, tau(k)) outside T.  Brute force over the subsets of J - K.
    Every row's w1 is a minimal coset representative, so every row places."""
    unplaced, checked = [], 0
    for rec in records:
        W, pi = type_group(rec.family, rec.rank, rec.twist)
        placed = place_row(W, pi, rec.J, rec.w1)
        if placed is None:
            unplaced.append(rec.label)
            continue
        assert placed.K == rec.K_expected, rec.label

        def stable(T):
            return all(W.simple_image(placed.w1, pi[k]) in T for k in T)

        assert stable(placed.K), rec.label
        rest = sorted(rec.J - placed.K)
        for size in range(1, len(rest) + 1):
            for extra in combinations(rest, size):
                assert not stable(placed.K | set(extra)), (rec.label, extra)
                checked += 1
    assert unplaced == []
    assert checked == 3396


def test_sigma_is_the_map_of_w1_tau_on_K(records):
    """For each of the 213 rows, sigma permutes the nodes of the standalone
    W_K, and for each k in K, w1(alpha_tau(k)) is the simple root of the
    ambient node that sigma names: read as coordinates off the signed root
    index, not through ``simple_image``.  K itself is checked above."""
    assert len(records) == 213
    for rec in records:
        W, tau = type_group(rec.family, rec.rank, rec.twist)
        placed = place_row(W, tau, rec.J, rec.w1)
        sub_nodes = set(range(1, len(placed.K) + 1))
        assert set(placed.sigma) == set(placed.sigma.values()) == sub_nodes, rec.label
        if not placed.K:
            continue
        sub = sub_context(W, placed.K)
        for i, m in placed.sigma.items():
            k, image = sub.to_ambient[i], sub.to_ambient[m]
            unit = tuple(int(j == image) for j in W.system.nodes)
            coords = W.signed_to_coords(W.act_on_simple(placed.w1, tau[k]))
            assert coords == unit, (rec.label, k)


class TestQuirkRecords:
    def test_e7_case7_printed_reading_fails_coset_precondition(self, records):
        """The printed tail s_{[1,7]}^{-1} is the empty word, and that w1 is no
        minimal coset representative; the row holds the amended tail s_{[7,1]}^{-1}."""
        rec = by_label(records, "E7 case 7")
        printed = (2, 4, 3, 5, 4, 2) + br(6, 3) + br(7, 4)
        W, pi_inv = type_group(rec.family, rec.rank, rec.twist)
        assert place_row(W, pi_inv, rec.J, printed) is None
        assert rec.w1 == printed + bri(7, 1)

    def test_notes_present(self, records):
        assert by_label(records, "E8 case 1").notes
        assert by_label(records, "2E6 case 5").notes
        assert by_label(records, "2F4 case 5").notes
        assert by_label(records, "F4 case 1").notes


class TestRecords:
    """The catalog's record classes keep the semantics of the dataclasses they replace."""

    def test_case_record_defaults_equality_hash_and_frozen(self):
        """The label and the inner-option mode are derived, and cannot be set."""
        args = dict(family="A", rank=2, twist=1, case=1,
                    J=frozenset({1}), w1=(2,), K_expected=frozenset())
        record = CaseRecord(**args)
        assert (record.v_words, record.m_values, record.prose, record.param_a) == ((), None, "", None)
        assert record.spade is False
        assert record == CaseRecord(**args)
        with pytest.raises(TypeError):
            hash(record)
        assert record != CaseRecord(**args, param_a=1)
        assert record.type_name == "A2"
        assert (record.label, record.v_mode) == ("A2 case 1", "identity")
        assert CaseRecord(**args, param_a=1).label == "A2 case 1 a=1"
        with pytest.raises(AttributeError):
            record.label = "Y"
        assert record.label == "A2 case 1"

    def test_every_catalog_row_is_unhashable(self, records):
        """Rows with and without ``m_values`` alike: the record class is unhashable."""
        assert any(r.m_values is None for r in records)
        for record in records:
            with pytest.raises(TypeError):
                hash(record)

    def test_row_placement_equality_and_frozen(self):
        W = weyl_group("A", 3)
        tau = {i: i for i in W.system.nodes}
        placed = place_row(W, tau, frozenset({1, 3}), (2,))
        assert placed == place_row(W, tau, frozenset({1, 3}), (2,))
        assert placed != place_row(W, tau, frozenset({1, 3}), ())
        with pytest.raises(AttributeError):
            placed.K = frozenset()
        with pytest.raises(TypeError):  # sigma is a dict
            hash(placed)

    def test_reports_are_mutable_and_unhashable(self):
        first, second = CaseReport("a"), CaseReport("a")
        assert first.subchecks is not second.subchecks and first.details is not second.details
        first.subchecks["x"] = "pass"
        assert second.subchecks == {} and first != second
        second.subchecks["x"] = "pass"
        assert first == second
        first.label = "b"
        assert first != second
        aggregate = AggregateReport([first])
        aggregate.cases.append(second)
        assert aggregate == AggregateReport(cases=[first, second])
        for report in (first, aggregate):
            with pytest.raises(TypeError):
                hash(report)

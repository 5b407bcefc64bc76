"""The independent certificate checker, on integer root coordinates.

A certificate (family, rank, twist, direction, q, w, form, mu) claims that
mu satisfies the strict system of the element w of its word, in one of
two forms, with pi the index map of the twist in the certificate's
direction:

* forward form, wire tag ``"lemma-1.11"``: the q-rows
  q * mu[pi(i)] - (w^{-1} alpha_i)(mu) > 0 for every node i, then
  alpha(mu) > 0 on the inversions of w;

* inverse form, wire tag ``"stmt-1.13a"``: the q-rows
  q * mu[i] - (w alpha_{pi(i)})(mu) > 0, then the inversions of w^{-1}.

The checker re-derives those rows from the Dynkin diagram alone: it
builds no group, root closure or reflection table, and shares no state
with the routes that make certificates.  It reads q and every coordinate
of mu as integers p + q' sqrt(d) over one common denominator r, with one
radicand d for them all, put there in one step after every structural
check: the numbers of a certificate read from the wire, as read, by
``exactnum.common_parts``, and those of one built in process by
``exactnum.integer_parts``, which goes through the same function, so
both reach the same walk.  The walk keeps, for each column y(alpha_i) of
the running product y, the key sum_j c_j 16^(rank-1-j) of its
simple-root coordinates c and one int, a half of its value at mu over r.
It runs once on the rational halves and, only when d is 2 or 3, once
more on the sqrt halves; the keys move the same way in both.  When d = 1
each row's slack is an int compared with 0, and otherwise the sign of
p + q' sqrt(d) is decided by ``exactnum._sign``.  Letter a moves the key
and the value to those of y s_a by the one linear rule

    y s_a(alpha_i) = y(alpha_i) - C[a][i] * y(alpha_a),

which changes column a and its neighbours in the Dynkin diagram only, and
meets the root y(alpha_a).  When it is positive it is the one inversion
of (y s_a)^{-1} that y^{-1} lacks; when it is negative its negation is
the one inversion of y^{-1} that (y s_a)^{-1} lacks, since s_a
permutes the positive roots other than alpha_a.  So after a word x,
reduced or not, the columns are x(alpha_i) and the roots met, kept as
key -> value, are the inversions of x^{-1}.  The forward form walks the
reversed word (x = w^{-1}), the inverse form the word (x = w).

Every column is a root, and through rank ``MAX_RANK`` = 8 no root has a
coordinate above 6 in absolute value: the largest is the 6 of E8's
highest root 2 3 4 6 5 4 3 2 (Bourbaki, Lie Groups and Lie Algebras,
ch. VI, plate VII).  So in base 16 the key is injective, its sign is the
root's, on positive roots its order is the lexicographic order of
the coordinates, and the height of a positive root is the digit sum of
its key: (height, key) is the root order of :mod:`weyldl.rootdata`.  The
q-rows come from the final columns, the inversion rows from the roots
met, and only a rejection orders them: it reads the heights of the
violated inversions off their keys, and the first violated one is the
least by (height, key).  So the verdict, the label and the row count
agree with the systems of :mod:`weyldl.criterion`.

The checker keeps its own type data through rank 8, built per descriptor
on first use: the number of positive roots in closed form, the Dynkin
links with their Cartan entries from one edge rule per family (no n x n
matrix), and both index maps of every standard twist.  The tests pin
them equal to ``rootdata``'s ``positive_root_count``, ``cartan_matrix``
and ``build_twist`` for every type through rank 8.

This module also owns the certificate itself: the ``Certificate``
record, its JSON wire format and the parser, which refuses text longer
than ``MAX_CERT_CHARS`` before reading it.  In wire format 2 an exact
number is its shortest exact text (``number_to_json``): a rational is
the string "p" or "p/q", and a + b sqrt(d) with b nonzero is ["a", "b",
d], d = 2 or 3, fractions reduced.  ``_number`` reads that and nothing
else, a rational by ``_rational`` (-?[0-9]+(/[0-9]+)?).  ``_number_v1``
reads format 1, {"a": "p/q", "b": "r/s", "d": d}, the text of the
benchmark's check corpus; the envelope's ``format_version`` picks the
reader.  The parser keeps each number as read, (p, s, den, d) for (p + s
sqrt(d)) / den, and reduces none: the checker puts them over one
denominator after it has checked mu's length, so a long hostile mu costs
no common denominator, and ``q`` and ``mu`` build ``QuadExt`` views of
them only when first read.  w and mu must be JSON arrays, and the
letters of w are tested by one scan of their types; only a word with a
letter that is not an int is read letter by letter, for the message.
``to_json`` is the one writer of the wire layout, in one pass: numbers
by ``_number_text``, strings by the JSON library's own ASCII encoder,
and a field of a type that no route writes by ``json.dumps``;
``to_json_dict`` and ``number_to_json`` read its text back.

The trusted base is this module, from :mod:`weyldl.exactnum` the sign of
p + q sqrt(d), the radicand test, ``QuadExt``, ``common_parts`` and
``integer_parts``, and the record base ``Frozen`` of
:mod:`weyldl.rootdata`.  A certificate is
hostile input: every field is checked before it is used, w and mu for
being tuples before either is measured, and only a descriptor found
valid is memoized: one probe of the memo then answers all three of its
fields.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .exactnum import (
    IncompatibleRadicandError,
    QuadExt,
    _check_radicand,
    _make,
    _sign,
    common_parts,
    integer_parts,
)
from .rootdata import Frozen

__all__ = [
    "FORM_FORWARD",
    "FORM_INVERSE",
    "FORMAT_VERSION",
    "MAX_CERT_CHARS",
    "MAX_RANK",
    "Certificate",
    "CertificateError",
    "CheckResult",
    "check_certificate",
    "number_from_json",
    "number_to_json",
]

FORM_FORWARD = "lemma-1.11"
FORM_INVERSE = "stmt-1.13a"
FORMAT_VERSION = 2
MAX_RANK = 8
# Longest certificate text the parser reads.  ``to_json`` writes far less: at
# most 9 exact numbers (q and 8 coordinates), each a string of at most 2 ints
# or an array of at most 4, of at most 4300 digits each, Python's int-string
# limit.
MAX_CERT_CHARS = 1 << 20

_new = object.__new__


class CertificateError(ValueError):
    """Structurally malformed certificate data."""


class _IntegerForm(Frozen):
    """The slot of a wire certificate's numbers as read.

    It sits in a base class so that the fields of ``Certificate``, which
    :class:`Record` reads off its own ``__slots__``, are the eight of the
    wire.
    """

    __slots__ = ("_parts",)


class Certificate(_IntegerForm):
    """Checkable witness (group, direction, q, w, form, mu).

    ``w`` is the word, a tuple of 1-based node indices, and ``mu`` a tuple
    of exact numbers: the coordinates of mu in the fundamental-coweight
    basis, so that alpha(mu) is the dot product with the simple-root
    coordinates of alpha.

    A certificate built in process holds q and mu as given, and ``_parts``
    is None.  One read from the wire holds ``_parts`` instead: the (p, s,
    den, d) that the number reader of its format version reads for q and
    then for each coordinate of mu, unreduced and as many as the text
    holds.  Its ``q`` and ``mu`` slots start empty, and the first read of
    either builds it from ``_parts``, one ``QuadExt`` per number, and
    keeps it.
    """

    __slots__ = ("family", "rank", "twist", "direction", "q", "w", "form", "mu")

    def __init__(
        self,
        family: str,
        rank: int,
        twist: int,
        direction: str,
        q: QuadExt,
        w: tuple[int, ...],
        form: str,
        mu: tuple[QuadExt, ...],
    ):
        _set_family(self, family)
        _set_rank(self, rank)
        _set_twist(self, twist)
        _set_direction(self, direction)
        _set_q(self, q)
        _set_w(self, w)
        _set_form(self, form)
        _set_mu(self, mu)
        _set_parts(self, None)

    def __getattr__(self, name: str):
        # Reached only while a slot is empty: the first read of q or mu of a
        # certificate read from the wire, which builds the value and keeps it.
        if name == "q":
            value = _make(*self._parts[0])
            _set_q(self, value)
        elif name == "mu":
            value = tuple(_make(*x) for x in self._parts[1:])
            _set_mu(self, value)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return value

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The wire text, the envelope {"format_version", "group": {"family", "rank",
        "twist"}, "direction", "q", "w", "form", "mu"} with the separators (",", ":").

        Written in one pass: each number as ``_number_text`` forms it, each
        str and int field as the JSON library writes it, and a field of any
        other type (a bool rank, a list w) by ``json.dumps``.
        """
        w = self.w
        if type(w) is tuple and {int}.issuperset(map(type, w)):
            w = f"[{','.join(map(str, w))}]"
        else:
            w = _dumps(list(w))
        return (f'{{"format_version":{FORMAT_VERSION},"group":{{"family":{_text(self.family)},'
                f'"rank":{_text(self.rank)},"twist":{_text(self.twist)}}},'
                f'"direction":{_text(self.direction)},"q":{_number_text(self.q)},"w":{w},'
                f'"form":{_text(self.form)},"mu":[{",".join(map(_number_text, self.mu))}]}}')

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Certificate":
        cert = _new(cls)
        try:
            version = obj["format_version"]
            number = type(version) is int and _NUMBER_READERS.get(version)  # True == 1.0 == 1
            if not number:
                raise CertificateError(f"unsupported format_version {version!r}")
            grp = obj["group"]
            _set_family(cert, grp["family"])
            _set_rank(cert, _strict_int(grp["rank"]))
            _set_twist(cert, _strict_int(grp["twist"]))
            _set_direction(cert, obj["direction"])
            q = number(obj["q"])
            _set_w(cert, _letters(obj["w"]))
            _set_form(cert, obj["form"])
            _set_parts(cert, (q, *map(number, _array(obj["mu"], "mu"))))
        except CertificateError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed certificate: {exc}") from exc
        return cert

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        if len(text) > MAX_CERT_CHARS:
            raise CertificateError(f"certificate longer than {MAX_CERT_CHARS} characters")
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # ValueError: also Python's digit limit
            raise CertificateError(f"not JSON: {exc}") from exc
        return cls.from_json_dict(obj)


_set_parts = _IntegerForm._parts.__set__
(_set_family, _set_rank, _set_twist, _set_direction, _set_q, _set_w, _set_form,
 _set_mu) = (getattr(Certificate, name).__set__ for name in Certificate.__slots__)


def _strict_int(value) -> int:
    """``value`` itself when it is exactly an int: no bool, float or numeric string."""
    if type(value) is not int:
        raise CertificateError(f"expected an integer, got {type(value).__name__}")
    return value


def _array(value, field: str) -> list:
    """``value`` when it is a JSON array: a string or an object would iterate too."""
    if type(value) is not list:
        raise CertificateError(f"{field} must be a JSON array, got {type(value).__name__}")
    return value


def _letters(word) -> tuple[int, ...]:
    """``word``, a JSON array, as a tuple when every letter is exactly an int; raises
    for the first letter that is not."""
    word = tuple(_array(word, "w"))
    if not {int}.issuperset(map(type, word)):
        for letter in word:
            _strict_int(letter)
    return word


def number_to_json(x: QuadExt) -> str | list:
    """Bit-exact wire form of an exact number: "p" or "p/q", or ["a", "b", d].

    An int or a Fraction is written as the equal QuadExt: ``integer_parts``
    coerces it with ``exactnum.qext``, so a bool raises TypeError.
    """
    return json.loads(_number_text(x))


def _number_text(x: QuadExt) -> str:
    """The wire text of x = (p + q sqrt(d)) / r."""
    if type(x) is QuadExt:
        p, q, r, d = x._p, x._q, x._r, x._d
    else:
        (p,), (q,), r, d = integer_parts([x])
    a = _fraction_text(p, r)
    return f'["{a}","{_fraction_text(q, r)}",{d}]' if q else f'"{a}"'


def _fraction_text(p: int, r: int) -> str:
    g = gcd(p, r)
    return str(p // g) if g == r else f"{p // g}/{r // g}"


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _text(value) -> str:
    """``_dumps(value)``, written directly for a str or an int."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    return str(value) if kind is int else _dumps(value)


def number_from_json(obj) -> QuadExt:
    """Inverse of :func:`number_to_json`; reads only the grammar of format 2."""
    return _make(*_number(obj))


def _number(obj) -> tuple[int, int, int, int]:
    """(p, s, r, d) with the number of the wire payload ``obj`` equal to
    (p + s sqrt(d)) / r, r > 0 and s = 0 when d = 1, not reduced; raises
    ValueError outside the grammar."""
    if type(obj) is str:
        p, r = _rational(obj)
        return p, 0, r, 1
    if type(obj) is list and len(obj) == 3 and type(obj[2]) is int and obj[2] in (2, 3):
        return _join(*_rational(obj[0]), *_rational(obj[1]), obj[2])
    raise ValueError("malformed number: expected 'p/q' or [a, b, d] with d 2 or 3")


def _rational(text) -> tuple[int, int]:
    """``_ratio`` of ``text``, with "/1" implied when it has no slash."""
    if type(text) is str and "/" not in text:
        text += "/1"
    return _ratio(text)


def _number_v1(obj) -> tuple[int, int, int, int]:
    """``_number`` of format 1, {"a": "p/q", "b": "r/s", "d": d}; raises for a, then
    b, then d."""
    try:
        a, b, d = obj["a"], obj["b"], obj["d"]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed QuadExt payload") from exc
    if type(d) is not int:
        raise ValueError("malformed QuadExt radicand")
    an, ad = _ratio(a)
    if b == "0/1" and d == 1:  # how format 1 wrote every rational
        return an, 0, ad, 1
    bn, bd = _ratio(b)
    _check_radicand(d)
    return _join(an, ad, bn, bd, d)


def _join(an: int, ad: int, bn: int, bd: int, d: int) -> tuple[int, int, int, int]:
    if not bn:
        return an, 0, ad, 1
    if d == 1:  # sqrt(1) = 1 folds b into the rational part
        return an * bd + bn * ad, 0, ad * bd, 1
    return an * bd, bn * ad, ad * bd, d


def _ratio(text) -> tuple[int, int]:
    """The numerator and positive denominator of ``text`` in the grammar
    -?[0-9]+/[0-9]+, unreduced.

    Only ASCII digits pass: ``int`` alone would also take spaces,
    underscores, a '+' and the digits of other scripts, and
    ``str.isdigit`` superscripts.  ``int`` enforces Python's digit limit.
    """
    if isinstance(text, str) and text.isascii():
        num, _, den = text.partition("/")
        if den.isdigit() and (num[1:] if num[:1] == "-" else num).isdigit():
            num, den = int(num), int(den)
            if den:
                return num, den
            raise ValueError("malformed rational: zero denominator")
    raise ValueError("malformed rational: expected 'p/q'")


_NUMBER_READERS = {1: _number_v1, FORMAT_VERSION: _number}


class CheckResult(Frozen):
    """A checker verdict: accepted, or the reason for the rejection."""

    __slots__ = ("accepted", "reason", "rows_checked")

    def __init__(self, accepted: bool, reason: str = "", rows_checked: int = 0):
        _set_accepted(self, accepted)
        _set_reason(self, reason)
        _set_rows_checked(self, rows_checked)

    def __bool__(self) -> bool:
        return self.accepted


_set_accepted, _set_reason, _set_rows_checked = (
    getattr(CheckResult, name).__set__ for name in CheckResult.__slots__)


# -- type data through rank 8 -------------------------------------------------------

# |Phi^+| by family as a function of the rank, None where the family has no type of that
# rank (Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates I-IX).
_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n if n >= 2 else None,
    "C": lambda n: n * n if n >= 2 else None,
    "D": lambda n: n * (n - 1) if n >= 3 else None,
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": {4: 24}.get,
    "G": {2: 6}.get,
}


def _root_count(family, rank: int) -> int:
    """The number of positive roots of type (family, rank), for an int rank; raises
    ValueError when the pair names no irreducible type."""
    rule = _ROOT_COUNTS.get(family) if isinstance(family, str) else None
    count = rule(rank) if rule else None
    if count is None:
        raise ValueError(f"no root system of type {family}{rank}")
    return count


def _links(family: str, rank: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry a lists (i, C[a][i]) for each neighbour i of node a, 0-based and in order,
    of a valid type, from its Dynkin diagram's edges (i, j, C[i][j], C[j][i])."""
    n = rank
    if family == "E":  # alpha_1 joins alpha_3, alpha_2 joins alpha_4, then alpha_3 ... alpha_n
        edges = [(0, 2, -1, -1), (1, 3, -1, -1)] + [(i, i + 1, -1, -1) for i in range(2, n - 1)]
    elif family == "G":
        edges = [(0, 1, -3, -1)]  # alpha_1 short, alpha_2 long
    else:  # a chain, but for the last edge of B, C and D and the middle edge of F
        edges = [(i, i + 1, -1, -1) for i in range(n - 1)]
        if family == "B":
            edges[-1] = (n - 2, n - 1, -1, -2)  # alpha_n short
        elif family == "C":
            edges[-1] = (n - 2, n - 1, -2, -1)  # alpha_n long
        elif family == "D":
            edges[-1] = (n - 3, n - 1, -1, -1)  # alpha_n joins alpha_{n-2}
        elif family == "F":
            edges[1] = (1, 2, -1, -2)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
    links = [[] for _ in range(n)]
    for i, j, cij, cji in edges:
        links[i].append((j, cij))
        links[j].append((i, cji))
    return tuple(tuple(sorted(row)) for row in links)


def _twist(family: str, rank: int, order: int) -> tuple[int, ...]:
    """The 0-based images of the standard twist of ``order`` of a valid type; raises
    ValueError where it has none."""
    n = rank
    if order == 1:
        return tuple(range(n))
    if order == 2:
        if family == "A" and n >= 2:
            return tuple(range(n - 1, -1, -1))
        if family == "D" and n >= 4:
            return (*range(n - 2), n - 1, n - 2)
        perm = {("E", 6): (5, 1, 4, 3, 2, 0), ("B", 2): (1, 0), ("G", 2): (1, 0),
                ("F", 4): (3, 2, 1, 0)}.get((family, n))
    elif order == 3:
        perm = (3, 1, 0, 2) if family == "D" and n == 4 else None  # 1 -> 4, 3 -> 1, 4 -> 3
    else:
        raise ValueError(f"unsupported twist order {order}")
    if perm is None:
        raise ValueError(f"type {family}{rank} has no twist of order {order}")
    return perm


# (family, rank, twist) -> (positive root count, links, unit keys, index maps by
# direction), stored once all three fields are known valid.
_DESCRIPTORS: dict[tuple[str, int, int], tuple] = {}


def _descriptor(family: str, rank: int, twist) -> tuple:
    """The root count and walk data of a valid (family, rank), memoized; raises for an
    invalid twist.

    Entry a of the links lists (i, C[a][i]) for each neighbour i of node a
    (0-based), and entry i of the unit keys is the key of alpha_i.  The
    index maps, 0-based, are the twist's images for direction ``"delta"``
    and its inverse's for ``"delta_inv"``.
    """
    if type(twist) is not int:  # 2.0 and True would share the memo key of 2 and 1
        raise ValueError(f"twist must be an int, got {type(twist).__name__}")
    delta = _twist(family, rank, twist)
    inverse = [0] * rank
    for i, image in enumerate(delta):
        inverse[image] = i
    units = tuple(16 ** (rank - 1 - i) for i in range(rank))
    data = (_root_count(family, rank), _links(family, rank), units,
            {"delta": delta, "delta_inv": tuple(inverse)})
    _DESCRIPTORS[family, rank, twist] = data
    return data


# -- the check ----------------------------------------------------------------------


def _sweep(word, links, units, values) -> tuple[list, list, dict]:
    """The columns x(alpha_i) of the product x of ``word`` as (keys, values), from
    alpha_i with ``values[i]`` at mu, and the roots met, the inversions of
    x^{-1}: key -> value.  The keys, and so the roots met and their order, do
    not depend on the values."""
    keys, values, met = list(units), list(values), {}
    for a in word:
        a -= 1
        k, p = keys[a], values[a]
        if k > 0:  # the sign of a key is the sign of its root
            met[k] = p
        else:
            del met[-k]
        keys[a], values[a] = -k, -p
        for i, c in links[a]:
            keys[i] -= c * k
            values[i] -= c * p
    return keys, values, met


def _coords(key: int, rank: int) -> tuple[int, ...]:
    """The simple-root coordinates of the positive root with ``key``."""
    return tuple(key >> 4 * j & 15 for j in reversed(range(rank)))


def check_certificate(cert) -> CheckResult:
    """Re-derive the certificate's rows from its Dynkin diagram and evaluate them exactly."""
    family, rank, twist, word, parts = cert.family, cert.rank, cert.twist, cert.w, cert._parts
    mu = cert.mu if parts is None else parts[1:]
    # Only a validated descriptor reaches the memo: an int rank in range (2.0
    # would share the key of 2), a (family, rank) with a root count, an int twist.
    if type(rank) is not int or not 1 <= rank <= MAX_RANK:
        return CheckResult(False, f"rank must be in 1..{MAX_RANK}")
    # The type tests keep an unhashable field away from the probe.  A hit was
    # valid in all three fields, so it skips their checks.
    hit = type(family) is str and type(twist) is int and _DESCRIPTORS.get((family, rank, twist))
    try:
        max_length = hit[0] if hit else _root_count(family, rank)
    except ValueError as exc:
        return CheckResult(False, f"bad group descriptor: {exc}")
    if type(word) is not tuple or type(mu) is not tuple:
        return CheckResult(False, "w and mu must be tuples")
    if len(word) > max_length:
        return CheckResult(False, "word longer than the longest element")
    try:
        descriptor = hit or _descriptor(family, rank, twist)
    except Exception as exc:
        return CheckResult(False, f"bad group descriptor: {exc}")
    if cert.direction not in ("delta", "delta_inv"):
        return CheckResult(False, f"unknown direction {cert.direction!r}")
    if cert.form not in (FORM_FORWARD, FORM_INVERSE):
        return CheckResult(False, f"unknown form {cert.form!r}")
    if len(mu) != rank:
        return CheckResult(False, "mu has wrong rank")
    # A letter that is not an int (1.0, True) would pass the range test.
    if word and (not {int}.issuperset(map(type, word)) or min(word) < 1 or max(word) > rank):
        return CheckResult(False, f"word letter is not an int in 1..{rank}")
    # q and every coordinate over one denominator r and one radicand d: the
    # system sums them all, so each must be compatible with every other.
    try:
        (qp, *mp), (qq, *mq), r, d = (integer_parts([cert.q, *mu]) if parts is None
                                      else common_parts(parts))
    except IncompatibleRadicandError:
        return CheckResult(False, "incompatible exact numbers: "
                           "cannot combine sqrt(2) with sqrt(3)")
    except TypeError as exc:  # a value that is not an exact number
        return CheckResult(False, f"q and mu must be exact numbers: {exc}")
    if _sign(qp, qq, d) <= 0:
        return CheckResult(False, "q must be positive")

    _, links, units, maps = descriptor
    pi = maps[cert.direction]
    # Row i, times r * r: q * mu[u] - x(alpha_v)(mu), with u = pi(i) and v = i
    # in the forward form (x = w^{-1}), u = i and v = pi(i) in the inverse (x =
    # w).  Then the inversions of x^{-1}: the roots met, with their values in
    # the same order.  Each slack and each value is an int with the row's sign.
    if cert.form == FORM_FORWARD:
        x, columns = word[::-1], zip(pi, range(rank))
    else:
        x, columns = word, enumerate(pi)
    _, ps, met = _sweep(x, links, units, mp)
    if d == 1:  # no sqrt half: a slack is an int
        slacks = [qp * mp[u] - r * ps[v] for u, v in columns]
        values = met.values()
    else:  # the sqrt halves take the same walk, and meet the same roots in the same order
        _, qs, met_q = _sweep(x, links, units, mq)
        slacks = [_sign(qp * mp[u] + d * qq * mq[u] - r * ps[v],
                        qp * mq[u] + qq * mp[u] - r * qs[v], d) for u, v in columns]
        values = [_sign(p, q, d) for p, q in zip(met.values(), met_q.values())]
    rows = rank + len(met)
    if min(slacks) <= 0:
        i = 0
        while slacks[i] > 0:
            i += 1
        label, slack = f"q-row i={i + 1}", slacks[i]
    elif met and min(values) <= 0:
        _, k, slack = min((sum(_coords(k, rank)), k, v) for k, v in zip(met, values) if v <= 0)
        label = f"inversion {_coords(k, rank)}"
    else:
        return CheckResult(True, "", rows)
    # Only the sign is reported: a hostile mu can make a slack too long to print.
    reason = f"violated: {label} (slack {'zero' if slack == 0 else 'negative'})"
    return CheckResult(False, reason, rows)

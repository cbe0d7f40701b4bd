"""JSON tuple files: the on-disk interchange format for matrix tuples.

Layout::

    {
      "format_version": "1",
      "size": n,
      "length": g,
      "hermitian": true,
      "comment": "optional provenance note",
      "matrices": [ [ [[re, im], ...row...], ...rows... ], ...g matrices... ]
    }

Entries are ``[re, im]`` pairs in row-major order.  Files are written as
``json.dump(payload, indent=1)`` would write them, but the matrices are
encoded straight from the array with string joins, and serialization is
deterministic so identical tuples round-trip to identical bytes.  Reading
parses ``matrices`` with one ``np.array`` call and one shape check against
(length, size, size, 2).  A file is rejected (``TupleFormatError``) unless
``size`` and ``length`` are integers of at least 1, ``hermitian`` is a
boolean, and every entry is a number: strings, nulls, booleans, NaN and Inf
tokens and entries above ``MAX_ENTRY`` are refused.
"""

import json
from itertools import chain

import numpy as np

from .errors import DimensionError, TupleFormatError
from .linalg import DEFAULT_TOL, HermitianTuple, as_matrix_tuple

FORMAT_VERSION = "1"
# Largest accepted entry magnitude: products of two entries, which pencil
# values and sums of squares form, must stay finite.
MAX_ENTRY = float(np.sqrt(np.finfo(float).max))


def _encode_matrices(arr):
    """The ``matrices`` array as ``json.dump(..., indent=1)`` writes it as
    the value of a top-level key: each nesting level one space deeper,
    floats by ``repr``."""
    n = arr.shape[1]
    # Adding 0.0 canonicalizes signed zeros so equal tuples serialize to
    # identical bytes.
    re, im = ((part + 0.0).ravel().tolist() for part in (arr.real, arr.imag))
    pairs = [f"[\n     {a!r},\n     {b!r}\n    ]" for a, b in zip(re, im)]

    def nest(items, depth):
        # Groups of n consecutive items, each group a list at `depth`.
        inner, outer = "\n" + " " * (depth + 1), "\n" + " " * depth
        sep = "," + inner
        return ["[" + inner + sep.join(items[k:k + n]) + outer + "]"
                for k in range(0, len(items), n)]

    mats = nest(nest(pairs, 3), 2)
    return "[\n  " + ",\n  ".join(mats) + "\n ]"


def write_tuple(path, mats, comment=None):
    """Serialize a matrix tuple to ``path``, marked ``hermitian`` exactly
    when every matrix equals its conjugate transpose (as in a HermitianTuple)."""
    arr = as_matrix_tuple(mats)
    if arr.shape[1] == 0:
        raise DimensionError("tuple files hold matrices of size at least 1")
    g, n, _ = arr.shape
    header = {
        "format_version": FORMAT_VERSION,
        "size": int(n),
        "length": int(g),
        "hermitian": bool(np.array_equal(arr, arr.conj().transpose(0, 2, 1))),
    }
    if comment is not None:
        header["comment"] = str(comment)
    header = json.dumps(header, indent=1)
    text = header[:-2] + ',\n "matrices": ' + _encode_matrices(arr) + "\n}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _positive_int(payload, name):
    value = payload[name]
    if type(value) is not int or value < 1:
        raise TupleFormatError(f"{name} must be an integer of at least 1, got {value!r}")
    return value


def payload_to_tuple(payload, tol=DEFAULT_TOL):
    """The tuple a parsed tuple file holds, checked entry by entry; a
    Hermitian tuple must be Hermitian within ``tol.hermitian_tol``."""
    if not isinstance(payload, dict):
        raise TupleFormatError("tuple file must contain a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise TupleFormatError(f"unsupported format_version {version!r}")
    try:
        n = _positive_int(payload, "size")
        g = _positive_int(payload, "length")
        hermitian = payload["hermitian"]
        raw = payload["matrices"]
    except KeyError as exc:
        raise TupleFormatError(f"missing field: {exc}") from exc
    if type(hermitian) is not bool:
        raise TupleFormatError(f"hermitian must be true or false, got {hermitian!r}")
    expected = (g, n, n, 2)
    try:
        parts = np.array(raw)
    except ValueError as exc:  # ragged nesting
        raise TupleFormatError(
            f"matrices is not a {expected} array of [re, im] pairs: {exc}") from exc
    if parts.shape != expected:
        raise TupleFormatError(
            f"matrices has shape {parts.shape}, expected {expected}: {g} matrices "
            f"of {n} rows of {n} [re, im] pairs")
    # Mixed with numbers, JSON booleans become 1 or 0 in the array, so they
    # are looked for among the parsed entries themselves.
    entries = chain.from_iterable(chain.from_iterable(chain.from_iterable(raw)))
    if parts.dtype.kind not in "iuf" or bool in set(map(type, entries)):
        raise TupleFormatError("tuple file has entries that are not numbers")
    parts = np.ascontiguousarray(parts, dtype=float)
    if not np.isfinite(parts).all():
        raise TupleFormatError("tuple file contains non-finite entries")
    largest = float(np.abs(parts).max())
    if largest > MAX_ENTRY:
        raise TupleFormatError(
            f"tuple file has an entry of magnitude {largest:.3e}, above {MAX_ENTRY:.3e}")
    mats = parts.view(complex)[..., 0]
    if hermitian:
        try:
            return HermitianTuple(mats, tol.hermitian_tol), payload
        except Exception as exc:
            raise TupleFormatError(f"matrices fail the Hermitian check: {exc}") from exc
    return as_matrix_tuple(mats), payload


def read_tuple(path, tol=DEFAULT_TOL):
    """Parse a tuple file; returns (HermitianTuple or (g, n, n) array, payload)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise TupleFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise TupleFormatError(f"{path} is not valid JSON: {exc}") from exc
    return payload_to_tuple(payload, tol)


def _reject_constant(name):
    raise TupleFormatError(f"non-finite token {name!r} is not allowed")

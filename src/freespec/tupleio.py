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

Entries are ``[re, im]`` pairs in row-major order.  NaN and Inf tokens are
rejected on both paths, reading also rejects entries above ``MAX_ENTRY``,
and serialization is deterministic so identical tuples round-trip to
identical bytes.
"""

import json

import numpy as np

from .errors import TupleFormatError
from .linalg import HermitianTuple, as_matrix_tuple

FORMAT_VERSION = "1"
# Largest accepted entry magnitude: products of two entries, which pencil
# values and sums of squares form, must stay finite.
MAX_ENTRY = float(np.sqrt(np.finfo(float).max))


def tuple_to_payload(mats, hermitian=True, comment=None):
    arr = mats.mats if isinstance(mats, HermitianTuple) else as_matrix_tuple(mats)
    g, n, _ = arr.shape
    payload = {
        "format_version": FORMAT_VERSION,
        "size": int(n),
        "length": int(g),
        "hermitian": bool(hermitian),
    }
    if comment is not None:
        payload["comment"] = str(comment)
    # Adding 0.0 canonicalizes signed zeros so equal tuples serialize to
    # identical bytes.
    payload["matrices"] = [
        [[[float(arr[i, r, c].real) + 0.0, float(arr[i, r, c].imag) + 0.0]
          for c in range(n)]
         for r in range(n)]
        for i in range(g)
    ]
    return payload


def write_tuple(path, mats, hermitian=True, comment=None):
    """Serialize a matrix tuple; returns the payload that was written."""
    payload = tuple_to_payload(mats, hermitian, comment)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, allow_nan=False, indent=1)
        fh.write("\n")
    return payload


def payload_to_tuple(payload):
    if not isinstance(payload, dict):
        raise TupleFormatError("tuple file must contain a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise TupleFormatError(f"unsupported format_version {version!r}")
    try:
        n = int(payload["size"])
        g = int(payload["length"])
        hermitian = bool(payload["hermitian"])
        raw = payload["matrices"]
    except (KeyError, TypeError, ValueError) as exc:
        raise TupleFormatError(f"missing or malformed field: {exc}") from exc
    if not (isinstance(raw, list) and len(raw) == g):
        raise TupleFormatError(f"expected {g} matrices, found {len(raw) if isinstance(raw, list) else 'none'}")
    mats = np.zeros((g, n, n), dtype=complex)
    for i, rows in enumerate(raw):
        if not (isinstance(rows, list) and len(rows) == n):
            raise TupleFormatError(f"matrix {i} does not have {n} rows")
        for r, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == n):
                raise TupleFormatError(f"matrix {i} row {r} does not have {n} entries")
            for c, pair in enumerate(row):
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise TupleFormatError(
                        f"matrix {i} entry ({r},{c}) is not an [re, im] pair")
                re, im = pair
                mats[i, r, c] = complex(float(re), float(im))
    if not np.all(np.isfinite(mats)):
        raise TupleFormatError("tuple file contains non-finite entries")
    largest = max(np.abs(mats.real).max(initial=0.0), np.abs(mats.imag).max(initial=0.0))
    if largest > MAX_ENTRY:
        raise TupleFormatError(
            f"tuple file has an entry of magnitude {largest:.3e}, above {MAX_ENTRY:.3e}")
    if hermitian:
        try:
            return HermitianTuple(mats), payload
        except Exception as exc:
            raise TupleFormatError(f"matrices fail the Hermitian check: {exc}") from exc
    return as_matrix_tuple(mats), payload


def read_tuple(path):
    """Parse a tuple file; returns (HermitianTuple or (g, n, n) array, payload)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise TupleFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise TupleFormatError(f"{path} is not valid JSON: {exc}") from exc
    return payload_to_tuple(payload)


def _reject_constant(name):
    raise TupleFormatError(f"non-finite token {name!r} is not allowed")

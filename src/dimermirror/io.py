"""Dimer JSON parsing, serialization, and the bundled example files."""

from __future__ import annotations

import json
import os

from .dimer import Arrow, Dimer, Face, idkey

BUNDLED = ("c3", "conifold", "spp")


class DimerFormatError(Exception):
    """Malformed dimer file; the message names the offending field."""


def _shift(value, where: str):
    if value is None:
        return None
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in value)
    ):
        raise DimerFormatError(f"{where}: shift must be a pair of integers, got {value!r}")
    return (value[0], value[1])


def _ids(values: tuple, where: str) -> tuple:
    """Vertex or arrow ids: hashable values, so no JSON array or object.

    ``where`` names the field of entry i as ``where.format(i)``.
    """
    try:
        hash(values)
    except TypeError:
        for i, value in enumerate(values):
            try:
                hash(value)
            except TypeError:
                raise DimerFormatError(
                    f"{where.format(i)}: expected a string or a number, got {value!r}"
                ) from None
    return values


def _distinct_keys(values: tuple, where: str) -> None:
    """Refuse two unequal ids that share an ``idkey`` or a ``str()``.

    Ids are ordered by ``idkey``; two ids sharing one, such as 1.0 and "1.0",
    or null and "None", would be ordered by their place in the file's list,
    so each listing would follow that list.  Every output keys by ``str(id)``,
    so two ids sharing a ``str()``, such as 1 and "1", would print as one key.
    Equal ids, such as true and 1, are left to validation as duplicates.
    """
    first: dict = {}  # idkeys are tuples, so they never meet a str() here
    for i, value in enumerate(values):
        for key, clash in ((idkey(value), "share a sort key"), (str(value), "print as the same key")):
            j = first.setdefault(key, i)
            if values[j] != value:
                raise DimerFormatError(
                    f"{where.format(i)}: id {value!r} and id {values[j]!r} at {where.format(j)} {clash}"
                )


def dimer_from_dict(data: dict) -> Dimer:
    if not isinstance(data, dict):
        raise DimerFormatError("top level: expected an object")
    for key in ("name", "vertices", "arrows", "faces"):
        if key not in data:
            raise DimerFormatError(f"top level: missing field {key!r}")
    if not isinstance(data["name"], str):
        raise DimerFormatError(f"name: expected a string, got {data['name']!r}")
    for key in ("vertices", "arrows", "faces"):
        if not isinstance(data[key], list):
            raise DimerFormatError(f"{key}: expected a list, got {data[key]!r}")
    vertices = _ids(tuple(data["vertices"]), "vertices[{}]")
    _distinct_keys(vertices, "vertices[{}]")
    arrows = []
    for i, rec in enumerate(data["arrows"]):
        where = f"arrows[{i}]"
        if not isinstance(rec, dict):
            raise DimerFormatError(f"{where}: expected an object")
        for key in ("id", "tail", "head"):
            if key not in rec:
                raise DimerFormatError(f"{where}: missing field {key!r}")
        arrows.append(
            Arrow(rec["id"], rec["tail"], rec["head"], _shift(rec.get("shift"), where))
        )
    _distinct_keys(_ids(tuple(a.id for a in arrows), "arrows[{}].id"), "arrows[{}].id")
    faces = []
    for i, rec in enumerate(data["faces"]):
        where = f"faces[{i}]"
        if not isinstance(rec, dict):
            raise DimerFormatError(f"{where}: expected an object")
        sign = rec.get("sign")
        if sign not in ("+", "-"):
            raise DimerFormatError(f"{where}.sign: expected '+' or '-', got {sign!r}")
        boundary = rec.get("boundary")
        if not isinstance(boundary, list) or not boundary:
            raise DimerFormatError(f"{where}.boundary: expected a nonempty list")
        boundary = _ids(tuple(boundary), where + ".boundary[{}]")
        faces.append(Face(+1 if sign == "+" else -1, boundary))
    return Dimer(
        name=data["name"],
        vertices=vertices,
        arrows=tuple(arrows),
        faces=tuple(faces),
    )


def dimer_to_dict(d: Dimer) -> dict:
    return {
        "name": d.name,
        "vertices": list(d.vertices),
        "arrows": [
            {
                "id": a.id,
                "tail": a.tail,
                "head": a.head,
                "shift": list(a.shift) if a.shift is not None else None,
            }
            for a in d.arrows
        ],
        "faces": [
            {"sign": "+" if f.sign > 0 else "-", "boundary": list(f.boundary)}
            for f in d.faces
        ],
    }


def read_dimer(path) -> Dimer:
    """Read a dimer file without validating it; an unreadable file, bad JSON or a malformed field raises."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DimerFormatError(f"{path}: cannot read: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DimerFormatError(f"{path}: invalid JSON: {exc}") from exc
    return dimer_from_dict(data)


def parse_dimer(path) -> Dimer:
    """Read and validate a dimer file; invariant failures raise with witnesses."""
    d = read_dimer(path)
    report = d.validate()
    if not report.ok:
        raise DimerFormatError(
            f"{path}: invalid dimer: " + "; ".join(i.message for i in report.issues)
        )
    return d


def load_bundled(name: str) -> Dimer:
    if name not in BUNDLED:
        raise DimerFormatError(f"unknown bundled dimer {name!r}; have {BUNDLED}")
    with open(os.path.join(os.path.dirname(__file__), "data", f"{name}.json"), encoding="utf-8") as fh:
        text = fh.read()
    d = dimer_from_dict(json.loads(text))
    d.require_valid()
    return d

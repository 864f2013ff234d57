"""Line-oriented text formats for surfaces, coordinates and curves.

This module alone knows how a text file is laid out: a run of sections of
``key = value`` lines with ``#`` comments.  Surface files hold ``[surface]``,
``[curves]``, ``[pants]`` and ``[seams]``; coordinate files one ``[fn]``;
curve files one ``[curve "<name>"]`` per curve system.  Only ``curve``
headers take a label, and every section a format lists must appear.
Serialization is canonical: parsing a canonical file and re-serializing
reproduces it byte for byte.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .errors import ParseError, ValidationError
from .surface import (
    BOUNDARY,
    CURVE,
    PUNCTURE,
    CurveSystem,
    End,
    FNPoint,
    Marking,
    Pants,
    PantsDecomposition,
    SurfaceSpec,
)

_SECTION_RE = re.compile(r'^\[(\w+)(?:\s+"([^"]+)")?\]$')


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_sections(text: str, layout: dict) -> Iterator[tuple]:
    """Yield (header line_no, section, label, [(line_no, key, value), ...]) in file order.

    ``layout`` maps each allowed section to whether its header carries a
    label.  Content before the first header, an unknown section, a missing
    or stray label, or a repeated header or key is an error at its line; a
    listed section the file lacks is an error of the file.  Each section
    is yielded as it ends, so errors come in file order.
    """
    seen, keys = set(), set()
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        match = _SECTION_RE.match(line)
        if match:
            if current is not None:
                yield current
            section, label = match.groups()
            if section not in layout:
                raise ParseError(f"unexpected section {line}", line_no)
            if layout[section] != (label is not None):
                raise ParseError(f"[{section}] {'needs a' if layout[section] else 'takes no'} label",
                                 line_no)
            if (section, label) in seen:
                raise ParseError(f"repeated section {line}", line_no)
            seen.add((section, label))
            current, keys = (line_no, section, label, []), set()
            continue
        if current is None:
            raise ParseError("content before any section header", line_no)
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no)
        key, _, value = (part.strip() for part in line.partition("="))
        if key in keys:
            raise ParseError(f"repeated key {key!r}", line_no)
        keys.add(key)
        current[3].append((line_no, key, value))
    if current is not None:
        yield current
    missing = set(layout) - {section for section, _ in seen}
    if missing:
        raise ParseError(f"missing sections {sorted(missing)}")


def format_sections(sections) -> str:
    """Canonical text of (header, [(key, value), ...]) pairs, a blank line between sections."""
    return "\n\n".join("\n".join([f"[{header}]", *(f"{key} = {value}" for key, value in rows)])
                       for header, rows in sections) + "\n"


def parse_number(kind, value: str, line: int | None, what: str):
    """``kind(value)``; a ParseError at ``line`` naming ``what`` if it is not a ``kind``."""
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParseError(f"{what} must be {noun}, got {value!r}", line) from None


def _parse_end(token: str, line_no: int) -> End:
    if ":" in token:
        kind, _, name = token.partition(":")
        if kind not in (BOUNDARY, PUNCTURE):
            raise ParseError(f"unknown end kind {kind!r}", line_no)
        return End(kind, name)
    return End(CURVE, token)


def parse_surface(text: str) -> Marking:
    """Parse a surface file into a validated marking."""
    spec = None
    curve_rows: list[tuple[str, int]] = []
    pants_rows: list[Pants] = []
    seams: dict[str, int] = {}
    layout = dict.fromkeys(("surface", "curves", "pants", "seams"), False)
    for _, section, _, rows in parse_sections(text, layout):
        if section == "surface":
            fields = {key: parse_number(int, value, ln, key) for ln, key, value in rows}
            extra = [(ln, key) for ln, key, _ in rows
                     if key not in ("genus", "punctures", "boundary")]
            if extra:
                raise ParseError(f"unknown surface fields {sorted(key for _, key in extra)}",
                                 extra[0][0])
            spec = SurfaceSpec(
                fields.get("genus", 0),
                fields.get("punctures", 0),
                fields.get("boundary", 0),
            )
        elif section == "curves":
            for line_no, name, value in rows:
                if value not in ("+", "-"):
                    raise ParseError(f"orientation must be + or -, got {value!r}", line_no)
                curve_rows.append((name, 1 if value == "+" else -1))
        elif section == "pants":
            for line_no, name, value in rows:
                tokens = value.split()
                if len(tokens) != 3:
                    raise ParseError("each pants needs exactly 3 ends", line_no)
                ends = tuple(_parse_end(t, line_no) for t in tokens)
                pants_rows.append(Pants(name, ends))
        else:  # seams
            for line_no, name, value in rows:
                seams[name] = parse_number(int, value, line_no, name)
    decomposition = PantsDecomposition(
        tuple(name for name, _ in curve_rows),
        tuple(pants_rows),
        tuple(o for _, o in curve_rows),
    )
    return Marking(decomposition, seams, spec)


def serialize_surface(marking: Marking) -> str:
    spec = marking.spec
    if spec is None:
        raise ValidationError("cannot serialize a derived marking without a spec")
    dec = marking.decomposition
    return format_sections([
        ("surface", [("genus", spec.genus), ("punctures", spec.punctures),
                     ("boundary", spec.boundary)]),
        ("curves", [(name, "+" if orientation == 1 else "-")
                    for name, orientation in zip(dec.curves, dec.orientations)]),
        ("pants", [(pants.name, " ".join(str(e) for e in pants.ends)) for pants in dec.pants]),
        ("seams", [(name, marking.seams[name]) for name in dec.curves]),
    ])


def parse_fn(text: str, marking: Marking) -> FNPoint:
    """Parse an [fn] file against a marking."""
    lengths: dict[str, float] = {}
    twists: dict[str, float] = {}
    ((_, _, _, rows),) = parse_sections(text, {"fn": False})
    for line_no, key, value in rows:
        tokens = value.split()
        if key.startswith(f"{BOUNDARY}:"):
            if len(tokens) != 1:
                raise ParseError("boundary entries carry a single length", line_no)
            lengths[key.partition(":")[2]] = parse_number(float, tokens[0], line_no, key)
        else:
            if len(tokens) != 2:
                raise ParseError("curve entries are '<length> <twist>'", line_no)
            lengths[key], twists[key] = [parse_number(float, token, line_no, key)
                                         for token in tokens]
    return FNPoint(lengths, twists).validate_for(marking)


def serialize_fn(point: FNPoint, marking: Marking) -> str:
    rows = [(name, f"{point.length(name)!r} {point.twist(name)!r}") for name in marking.curves]
    rows += [(f"{BOUNDARY}:{name}", repr(point.length(name)))
             for name in marking.decomposition.boundary_names()]
    return format_sections([("fn", rows)])


def parse_curves(text: str, marking: Marking) -> dict[str, CurveSystem]:
    """Parse a curve file: one [curve "name"] section per system."""
    systems: dict[str, CurveSystem] = {}
    for _, _, label, rows in parse_sections(text, {"curve": True}):
        data = {name: (0, 0, 0) for name in marking.curves}
        for line_no, key, value in rows:
            tokens = value.split()
            if len(tokens) not in (2, 3):
                raise ParseError("curve entries are '<i> <b>' or '<i> <b> <n>'", line_no)
            counts = [parse_number(int, token, line_no, key) for token in tokens]
            data[key] = (*counts, 0) if len(counts) == 2 else tuple(counts)
        systems[label] = CurveSystem(data).validate_for(marking)
    return systems


def serialize_curves(systems: dict[str, CurveSystem], marking: Marking) -> str:
    return format_sections(
        (f'curve "{label}"', [(name, " ".join(map(str, systems[label].data[name])))
                              for name in marking.curves])
        for label in sorted(systems))

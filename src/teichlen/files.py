"""Line-oriented text formats for surfaces, coordinates, and curves.

Sections are ``[surface]``, ``[curves]``, ``[pants]``, ``[seams]`` (the
surface file), ``[fn]`` (a coordinate file), and ``[curve "<name>"]``
(curve files, one section per curve system).  Lines are ``key = values``
with ``#`` comments.  Serialization is canonical: parsing a canonical
file and re-serializing reproduces it byte for byte.
"""

from __future__ import annotations

import re

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


def parse_sections(text: str) -> list[tuple[int, str, str | None, list[tuple[int, str, str]]]]:
    """Split a file into (header line_no, section, label, [(line_no, key, value), ...]).

    A section header repeated with the same label, or a key repeated within
    one section, is an error at its line rather than a silent overwrite.
    """
    sections, headers = [], set()
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        match = _SECTION_RE.match(line)
        if match:
            if match.groups() in headers:
                raise ParseError(f"repeated section {line}", line_no)
            headers.add(match.groups())
            current, keys, header = (line_no, *match.groups(), []), set(), line
            sections.append(current)
            continue
        if current is None:
            raise ParseError("content before any section header", line_no)
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no)
        key, _, value = (part.strip() for part in line.partition("="))
        if key in keys:
            raise ParseError(f"repeated key {key!r} in {header}", line_no)
        keys.add(key)
        current[3].append((line_no, key, value))
    return sections


def _parse_int(value: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"expected an integer, got {value!r}", line_no) from None


def _parse_float(value: str, line_no: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"expected a number, got {value!r}", line_no) from None


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
    seen = set()
    for header, section, label, rows in parse_sections(text):
        if section == "surface":
            fields = {key: _parse_int(value, ln) for ln, key, value in rows}
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
        elif section == "seams":
            for line_no, name, value in rows:
                seams[name] = _parse_int(value, line_no)
        else:
            raise ParseError(f"unknown section [{section}] in surface file", header)
        seen.add(section)
    missing = {"surface", "curves", "pants", "seams"} - seen
    if missing:
        raise ParseError(f"surface file is missing sections {sorted(missing)}")
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
    lines = ["[surface]"]
    lines.append(f"genus = {spec.genus}")
    lines.append(f"punctures = {spec.punctures}")
    lines.append(f"boundary = {spec.boundary}")
    lines.append("")
    lines.append("[curves]")
    for name, orientation in zip(dec.curves, dec.orientations):
        lines.append(f"{name} = {'+' if orientation == 1 else '-'}")
    lines.append("")
    lines.append("[pants]")
    for pants in dec.pants:
        lines.append(f"{pants.name} = " + " ".join(str(e) for e in pants.ends))
    lines.append("")
    lines.append("[seams]")
    for name in dec.curves:
        lines.append(f"{name} = {marking.seams[name]}")
    return "\n".join(lines) + "\n"


def parse_fn(text: str, marking: Marking) -> FNPoint:
    """Parse an [fn] file against a marking."""
    lengths: dict[str, float] = {}
    twists: dict[str, float] = {}
    sections = parse_sections(text)
    if [section for _, section, _, _ in sections] != ["fn"]:
        # at the first section other than a leading [fn]; an empty file has none
        stray = sections[1:] if sections and sections[0][1] == "fn" else sections
        raise ParseError("coordinate file must contain exactly one [fn] section",
                         stray[0][0] if stray else None)
    for line_no, key, value in sections[0][3]:
        tokens = value.split()
        if key.startswith(f"{BOUNDARY}:"):
            if len(tokens) != 1:
                raise ParseError("boundary entries carry a single length", line_no)
            lengths[key.partition(":")[2]] = _parse_float(tokens[0], line_no)
        else:
            if len(tokens) != 2:
                raise ParseError("curve entries are '<length> <twist>'", line_no)
            lengths[key] = _parse_float(tokens[0], line_no)
            twists[key] = _parse_float(tokens[1], line_no)
    return FNPoint(lengths, twists).validate_for(marking)


def serialize_fn(point: FNPoint, marking: Marking) -> str:
    lines = ["[fn]"]
    for name in marking.curves:
        lines.append(f"{name} = {point.length(name)!r} {point.twist(name)!r}")
    for name in marking.decomposition.boundary_names():
        lines.append(f"{BOUNDARY}:{name} = {point.length(name)!r}")
    return "\n".join(lines) + "\n"


def parse_curves(text: str, marking: Marking) -> dict[str, CurveSystem]:
    """Parse a curve file: one [curve "name"] section per system."""
    systems: dict[str, CurveSystem] = {}
    for header, section, label, rows in parse_sections(text):
        if section != "curve" or not label:
            raise ParseError('curve files contain only [curve "<name>"] sections', header)
        data = {name: (0, 0, 0) for name in marking.curves}
        for line_no, key, value in rows:
            tokens = value.split()
            if len(tokens) not in (2, 3):
                raise ParseError("curve entries are '<i> <b>' or '<i> <b> <n>'", line_no)
            i = _parse_int(tokens[0], line_no)
            b = _parse_int(tokens[1], line_no)
            n = _parse_int(tokens[2], line_no) if len(tokens) == 3 else 0
            data[key] = (i, b, n)
        systems[label] = CurveSystem(data).validate_for(marking)
    if not systems:
        raise ParseError("curve file contains no curve sections")
    return systems


def serialize_curves(systems: dict[str, CurveSystem], marking: Marking) -> str:
    blocks = []
    for label in sorted(systems):
        beta = systems[label]
        lines = [f'[curve "{label}"]']
        for name in marking.curves:
            i, b, n = beta.data[name]
            lines.append(f"{name} = {i} {b} {n}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"

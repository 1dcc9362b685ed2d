"""Deep digest provenance: fields, helpers, CLI flags, the schema pin.

The content-addressed cache assumes a spec's digest covers everything
that changes a run's outcome. The classic way that assumption rots: a
field is added to the dataclass (or to a subclass inheriting the
digest), the digest keeps enumerating the old fields, and two
semantically different specs alias to one cache entry. This analysis
cross-references each dataclass's field list (own *and* inherited)
against its digest method, following ``self``-method calls through the
class chain — so a digest method that delegates to
``self._digest_parts()`` is credited with every field the helper
touches, and a field reached by *no* path from the digest is a finding.

Two companion checks ride the same closure:

* **dead CLI flags** — an ``add_argument`` destination whose value is
  never read anywhere in the tree cannot possibly reach a digested
  field, so the flag silently changes nothing a cache key sees;
* **schema pin** — :func:`schema_snapshot` fingerprints the field sets
  of every frozen dataclass reachable from ``RunSpec``, and
  ``SCHEMA_FINGERPRINT`` beside ``SCHEMA_VERSION`` in
  ``repro.experiments.artifact`` must equal it. A field-set change
  moves the fingerprint while old cache entries still claim the same
  ``SCHEMA_VERSION``, so it is a finding until the change bumps the
  version and re-pins the fingerprint. A lint of part of the package,
  which cuts the closure short, skips the pin.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Iterator

from repro.lintpass.base import Rule, Violation, register
from repro.lintpass.project import ClassInfo, ProjectIndex

__all__ = ["DeepDigestProvenanceRule", "schema_snapshot"]

#: Method names treated as digest/signature definitions.
_DIGEST_METHODS = ("digest", "signature", "signature_key", "canonical_key")

#: Traversal bound for helper-method chains under a digest method.
_MAX_HELPER_DEPTH = 6

#: The root of the digested-spec closure for schema fingerprinting.
_SCHEMA_ROOT = "RunSpec"

#: Module holding ``SCHEMA_VERSION`` and the pinned fingerprint.
_SCHEMA_MODULE = "repro.experiments.artifact"

#: The constant that pins :func:`schema_snapshot`'s fingerprint.
_SCHEMA_PIN = "SCHEMA_FINGERPRINT"


def _passes_whole_self(method: ast.FunctionDef) -> bool:
    """True when the method hands bare ``self`` to some call — the
    pass-the-whole-object style (``content_digest((..., self))``) that
    covers every field via ``dataclasses.fields`` automatically."""
    attribute_bases = {
        id(node.value)
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
    }
    return any(
        isinstance(node, ast.Name)
        and node.id == "self"
        and id(node) not in attribute_bases
        for node in ast.walk(method)
    )


def _self_attrs(method: ast.FunctionDef) -> set[str]:
    return {
        node.attr
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _self_calls(method: ast.FunctionDef) -> set[str]:
    """Names of methods the body invokes on ``self``."""
    calls: set[str] = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            calls.add(node.func.attr)
    return calls


def _transitive_coverage(
    index: ProjectIndex, info: ClassInfo, method: ast.FunctionDef
) -> tuple[set[str], bool]:
    """(self-attributes reachable from ``method``, whole-self seen).

    Follows ``self.helper()`` calls through the class chain so fields
    covered only inside helpers still count as digested.
    """
    covered: set[str] = set()
    visited: set[str] = set()
    queue: list[tuple[ast.FunctionDef, int]] = [(method, _MAX_HELPER_DEPTH)]
    whole_self = False
    while queue:
        current, depth = queue.pop()
        if current.name in visited:
            continue
        visited.add(current.name)
        if _passes_whole_self(current):
            whole_self = True
        covered |= _self_attrs(current)
        if depth <= 0:
            continue
        for callee_name in sorted(_self_calls(current)):
            callee = index.resolve_method(info, (callee_name,))
            if callee is not None:
                queue.append((callee, depth - 1))
    return covered, whole_self


@register
class DeepDigestProvenanceRule(Rule):
    """Digest coverage through helper methods, dead CLI flags, and the
    schema pin."""

    id = "deep-digest-provenance"
    summary = ("digested-dataclass field unreachable from its digest "
               "method (helper chains followed); dead CLI flags; "
               "digested schema differs from SCHEMA_FINGERPRINT")

    def check(self, index: ProjectIndex) -> Iterator[Violation]:
        for infos in index.classes.values():
            for info in infos:
                if info.is_dataclass:
                    yield from self._check_class(index, info)
        yield from self._check_cli_flags(index)
        yield from self._check_schema_pin(index)

    # ------------------------------------------------------------------
    def _check_class(
        self, index: ProjectIndex, info: ClassInfo
    ) -> Iterator[Violation]:
        method = index.resolve_method(info, _DIGEST_METHODS)
        if method is None:
            return
        covered, whole_self = _transitive_coverage(index, info, method)
        if whole_self:
            return  # canonical()/fields(self) covers everything
        missing = [
            f for f in index.all_fields(info)
            if f not in covered and not f.startswith("_")
        ]
        if not missing:
            return
        own = method.name in info.methods
        where = (
            f"its {method.name}()" if own
            else f"the inherited {method.name}()"
        )
        yield self.violation(
            info.file.path, info.node.lineno, info.node.col_offset,
            f"dataclass {info.name!r}: field(s) {', '.join(missing)} are "
            f"unreachable from {where} even through helper methods; the "
            "digest aliases specs that differ in them",
        )

    # ------------------------------------------------------------------
    def _check_cli_flags(self, index: ProjectIndex) -> Iterator[Violation]:
        attribute_reads: set[str] = set()
        string_uses: set[str] = set()
        for file in index.files:
            for node in ast.walk(file.tree):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    attribute_reads.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    string_uses.add(node.value)
        for file in index.files:
            for node in ast.walk(file.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"
                ):
                    continue
                dest = _argument_dest(node)
                if dest is None:
                    continue
                flag, name = dest
                if name in attribute_reads or name in string_uses:
                    continue
                yield self.violation(
                    file.path, node.lineno, node.col_offset,
                    f"CLI option {flag!r} (dest {name!r}) is parsed but "
                    "its value is never read anywhere, so it can never "
                    "reach a digested spec field; remove it or wire it "
                    "through",
                )

    # ------------------------------------------------------------------
    def _check_schema_pin(self, index: ProjectIndex) -> Iterator[Violation]:
        artifact = next(
            (f for f in index.files if f.module == _SCHEMA_MODULE), None
        )
        fingerprint = schema_snapshot(index)
        if artifact is None or fingerprint is None:
            return  # a partial lint: the closure cannot be fingerprinted
        constants = index.module_constants(_SCHEMA_MODULE)
        pinned = constants.get(_SCHEMA_PIN)
        if pinned == fingerprint:
            return
        version = constants.get("SCHEMA_VERSION")
        if pinned is None:
            problem = (
                f"{_SCHEMA_MODULE} pins no {_SCHEMA_PIN} beside "
                "SCHEMA_VERSION"
            )
        else:
            problem = (
                f"the digested-spec field set no longer matches "
                f"{_SCHEMA_PIN} (pinned {str(pinned)[:12]}...): cache "
                f"entries written under SCHEMA_VERSION {version} would "
                "load for a different field set"
            )
        # Reported at the pin, else at SCHEMA_VERSION, else line 1.
        sites = {
            target.id: node
            for node in artifact.tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        site = sites.get(_SCHEMA_PIN) or sites.get("SCHEMA_VERSION")
        yield self.violation(
            artifact.path,
            site.lineno if site else 1,
            site.col_offset if site else 0,
            f"{problem}; bump SCHEMA_VERSION and set {_SCHEMA_PIN} = "
            f"{fingerprint!r} in the same change",
        )


def _argument_dest(call: ast.Call) -> tuple[str, str] | None:
    """(display flag, destination name) of an add_argument call."""
    explicit: str | None = None
    for keyword in call.keywords:
        if (
            keyword.arg == "dest"
            and isinstance(keyword.value, ast.Constant)
            and isinstance(keyword.value.value, str)
        ):
            explicit = keyword.value.value
    options = [
        arg.value
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]
    if not options:
        return None
    display = options[0]
    if explicit is not None:
        return display, explicit
    longs = [o for o in options if o.startswith("--")]
    if longs:
        return longs[0], longs[0][2:].replace("-", "_")
    if not display.startswith("-"):
        return display, display.replace("-", "_")
    return None  # short-only option with no dest: argparse would reject


# ----------------------------------------------------------------------
# schema fingerprint (checked against the pin)
# ----------------------------------------------------------------------
def _annotation_class_names(annotation: ast.expr) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Forward reference: "RunSpec" / "tuple[FaultPlan, ...]".
            for token in _identifier_tokens(node.value):
                yield token


def _identifier_tokens(text: str) -> Iterator[str]:
    token = ""
    for char in text:
        if char.isalnum() or char == "_":
            token += char
        else:
            if token:
                yield token
            token = ""
    if token:
        yield token


def schema_snapshot(index: ProjectIndex) -> str | None:
    """Fingerprint of the digested-spec schema.

    The closure starts at ``RunSpec`` and follows field annotations to
    every frozen dataclass in the tree; the fingerprint hashes the
    sorted ``(class, field, ...)`` tuples, so it changes exactly when a
    digest-relevant field set changes. Returns ``None`` when the tree
    has no frozen ``RunSpec``, or when a closure field's annotation
    names a class imported from a ``repro`` module outside the index (a
    partial lint, whose closure would be cut short).
    """
    root = index.resolve_class(_SCHEMA_ROOT)
    if root is None or not root.is_frozen:
        return None
    indexed = {file.module for file in index.files}
    closure: dict[str, ClassInfo] = {}
    queue = [root]
    while queue:
        info = queue.pop()
        if info.name in closure:
            continue
        closure[info.name] = info
        for _, annotation in info.field_annotations:
            for name in _annotation_class_names(annotation):
                candidate = index.resolve_class(name)
                if candidate is None:
                    # Imported from a repro module outside the index?
                    origin = info.file.aliases.get(name, "")
                    if origin.startswith("repro.") and not (
                        origin in indexed
                        or origin.rpartition(".")[0] in indexed
                    ):
                        return None
                elif (
                    candidate.is_dataclass
                    and candidate.is_frozen
                    and candidate.name not in closure
                ):
                    queue.append(candidate)
    shape = sorted(
        (name, index.all_fields(info)) for name, info in closure.items()
    )
    return hashlib.sha256(repr(shape).encode("utf-8")).hexdigest()

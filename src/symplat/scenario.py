"""Scenario files: versioned YAML mappings that fully determine a run."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import yaml

from .model import ApplicationSpec, EnvironmentImage, InvalidValue, NodeSpec, checked


class ParseError(Exception):
    def __init__(self, message, path=None, line=None):
        loc = f"{path or '<scenario>'}" + (f":{line}" if line is not None else "")
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line


class ValidationError(Exception):
    def __init__(self, message, fieldpath=None):
        super().__init__(f"{fieldpath}: {message}" if fieldpath else message)
        self.fieldpath = fieldpath


@dataclass
class ScriptOp:
    at_ms: int
    op: str
    payload: dict
    tenant: str | None = None
    operator: bool = True


@dataclass
class Scenario:
    name: str
    mode: str
    seed: int
    duration_ms: int
    nodes: list[NodeSpec]
    images: list[EnvironmentImage]
    apps: list[tuple[ApplicationSpec, int, str]]  # (spec, submit_at_ms, tenant)
    script: list[ScriptOp] = field(default_factory=list)
    grace_s: int = 60
    retention_s: int = 3600


def _checked(name, value, fieldpath=None, **kwargs):
    """`checked`, refusing with a ValidationError at `fieldpath` (else at `name`)."""
    return checked(name, value, error=partial(ValidationError, fieldpath=fieldpath or name),
                   **kwargs)


def _require(obj, key, fieldpath):
    if key not in _checked("entry", obj, fieldpath, kinds=(dict,)):
        raise ValidationError(f"missing field {key!r}", fieldpath)
    return obj[key]


def _parsed(cls, entry, fieldpath, validate=True):
    """`cls.from_json(entry)`, validated unless `validate` is false, or a
    ValidationError at `fieldpath`: an entry that is not a mapping is refused
    as `_checked` refuses it, one that lacks a field as `missing field 'x'`,
    and a bad value with its own message."""
    _checked("entry", entry, fieldpath, kinds=(dict,))
    try:
        obj = cls.from_json(entry)
        if validate:
            obj.validate()
    except KeyError as exc:
        raise ValidationError(f"missing field {exc}", fieldpath) from exc
    except (InvalidValue, TypeError) as exc:
        raise ValidationError(str(exc), fieldpath) from exc
    return obj


def scenario_from_dict(doc, name="<scenario>"):
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a mapping")
    if doc.get("schema") != 1:
        raise ValidationError("unsupported or missing schema version (want schema: 1)", "schema")
    mode = doc.get("mode", "symmetric")
    if mode not in ("symmetric", "asymmetric"):
        raise ValidationError(f"mode must be symmetric or asymmetric, got {mode!r}", "mode")
    duration_s = _checked("duration_s", _require(doc, "duration_s", "duration_s"), least=0)
    # a run ticks while now < duration: its last tick starts at duration_s - 1
    last_s = duration_s - 1 if duration_s else None
    limits = {key: _checked(key, doc.get(key, default), least=least)
              for key, default, least in (("grace_s", 60, 0), ("retention_s", 3600, 1))}

    nodes = [_parsed(NodeSpec, n, f"cluster[{i}]")
             for i, n in enumerate(_checked("cluster", doc.get("cluster", []), kinds=(list,)))]
    if len({n.node_id for n in nodes}) != len(nodes):
        raise ValidationError("node_ids must be unique", "cluster")

    # an image's from_json checks each field as it reads it
    images = [_parsed(EnvironmentImage, img, f"images[{i}]", validate=False)
              for i, img in enumerate(_checked("images", doc.get("images", []), kinds=(list,)))]
    image_ids = {img.image_id for img in images}
    if len(image_ids) != len(images):
        raise ValidationError("image_ids must be unique", "images")

    apps = []
    for i, entry in enumerate(_checked("apps", doc.get("apps", []), kinds=(list,))):
        fieldpath = f"apps[{i}]"
        spec = _parsed(ApplicationSpec, _require(entry, "spec", fieldpath), fieldpath)
        if spec.kind == "container" and spec.image not in image_ids:
            raise ValidationError(f"unknown image {spec.image!r}", fieldpath)
        submit_at = _checked("submit_at_s", entry.get("submit_at_s", 0), fieldpath,
                             least=0, most=last_s)
        tenant = _checked("tenant", entry.get("tenant", "default"), fieldpath, kinds=(str,))
        apps.append((spec, submit_at * 1000, tenant))
    app_ids = [spec.app_id for spec, _, _ in apps]
    if len(set(app_ids)) != len(app_ids):
        raise ValidationError("app_ids must be unique", "apps")

    script = []
    for i, entry in enumerate(_checked("script", doc.get("script", []), kinds=(list,))):
        fieldpath = f"script[{i}]"
        at_s = _checked("at_s", _require(entry, "at_s", fieldpath), fieldpath,
                        least=0, most=last_s or 0)
        script.append(ScriptOp(
            at_ms=at_s * 1000,
            op=_require(entry, "op", fieldpath),
            payload=entry.get("payload", {}),
            tenant=_checked("tenant", entry.get("tenant"), fieldpath, kinds=(str, type(None))),
            operator=_checked("operator", entry.get("operator", True), fieldpath, kinds=(bool,)),
        ))
    script.sort(key=lambda s: s.at_ms)

    return Scenario(
        name=_checked("name", doc.get("name", name), kinds=(str,)),
        mode=mode,
        seed=_checked("seed", doc.get("seed", 0)),
        duration_ms=duration_s * 1000,
        nodes=nodes,
        images=images,
        apps=sorted(apps, key=lambda a: (a[1], a[0].app_id)),
        script=script,
        **limits,
    )


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such scenario file: {exc.filename}", path) from exc
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ParseError(str(exc).replace("\n", " "), path, line) from exc
    return scenario_from_dict(doc, name=str(path))

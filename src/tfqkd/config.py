"""Config-file ingestion (INI schema) for experiment runs.

Sections: ``[link]``, ``[detectors]``, ``[protocol]``, ``[noise]``,
``[security]``, ``[run]``.  Keys are the snake_case field names of the
corresponding types; ``[protocol]`` keys carry an ``a_``/``b_`` prefix
per party.  Missing keys fall back to the 546-km preset defaults; an
empty file therefore yields that default configuration.  Each value is
parsed by its field's type: numbers must be finite, and ``none`` is
accepted only where a field may be None.  Unknown keys are rejected.
"""
from __future__ import annotations

import configparser
import dataclasses
import io
import math
import typing

from .presets import ExperimentConfig, get_preset


class ConfigError(ValueError):
    """Invalid or unparsable configuration; carries the field path."""


_SECTIONS = ("link", "detectors", "protocol", "noise", "security", "run")


def _parse(text: str, typ):
    """Convert one INI value to a field's resolved type."""
    text = text.strip()
    if typ is str:
        return text
    if text.lower() == "none":
        if type(None) not in typing.get_args(typ):
            raise ValueError("none is not allowed for this key")
        return None
    val = int(text) if typ is int else float(text)
    if not math.isfinite(val):
        raise ValueError(f"{text!r} is not a finite number")
    return val


def _build(section: str, raw: dict, defaults, prefix: str = ""):
    """Override ``defaults`` with the keys of ``raw`` it knows (popped)."""
    kwargs = {}
    for name, typ in typing.get_type_hints(type(defaults)).items():
        key = prefix + name
        if key in raw:
            try:
                kwargs[name] = _parse(raw.pop(key), typ)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
    try:
        return dataclasses.replace(defaults, **kwargs)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Read an INI config file, filling gaps from the sym546 preset."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    for sec in parser.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}]")
    d = get_preset("sym546")
    raw = {sec: dict(parser[sec]) if parser.has_section(sec) else {}
           for sec in _SECTIONS}
    link = _build("link", raw["link"], d.link)
    det = _build("detectors", raw["detectors"], d.detectors)
    pa = _build("protocol", raw["protocol"], d.party_a, prefix="a_")
    pb = _build("protocol", raw["protocol"], d.party_b, prefix="b_")
    noise = _build("noise", raw["noise"], d.noise)
    security = _build("security", raw["security"], d.security)
    run = _build("run", raw["run"], d.run)
    resid = d.residual_phase_std_rad
    if "residual_phase_std_rad" in raw["noise"]:
        try:
            resid = _parse(raw["noise"].pop("residual_phase_std_rad"), float)
        except ValueError as exc:
            raise ConfigError(f"noise.residual_phase_std_rad: {exc}") from exc
    allow = raw["security"].pop("allow_unbalanced", "false").strip().lower()
    if allow not in parser.BOOLEAN_STATES:
        raise ConfigError(f"security.allow_unbalanced: {allow!r} is not a boolean")
    unknown = [f"{sec}.{key}" for sec in _SECTIONS for key in raw[sec]]
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
    try:
        return ExperimentConfig(link=link, detectors=det, party_a=pa,
                                party_b=pb, noise=noise, security=security,
                                run=run, residual_phase_std_rad=resid,
                                allow_unbalanced=parser.BOOLEAN_STATES[allow])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config as INI text; load(serialize(x)) round-trips."""
    parser = configparser.ConfigParser()

    def put(sec: str, obj, prefix: str = "") -> None:
        if sec not in parser:
            parser[sec] = {}
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            parser[sec][prefix + f.name] = "none" if v is None else str(v)

    put("link", cfg.link)
    put("detectors", cfg.detectors)
    put("protocol", cfg.party_a, prefix="a_")
    put("protocol", cfg.party_b, prefix="b_")
    put("noise", cfg.noise)
    parser["noise"]["residual_phase_std_rad"] = f"{cfg.residual_phase_std_rad}"
    put("security", cfg.security)
    parser["security"]["allow_unbalanced"] = str(cfg.allow_unbalanced).lower()
    put("run", cfg.run)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()

"""Config-file ingestion (INI schema) for experiment runs.

Sections: ``[link]``, ``[detectors]``, ``[protocol]``, ``[noise]``,
``[security]``, ``[run]``.  Keys are the snake_case field names of the
corresponding types; ``[protocol]`` keys carry an ``a_``/``b_`` prefix
per party.  A file overrides a base configuration (the run's preset) key
by key; an empty file therefore yields the base unchanged.  Each value
is converted by its field's type, and its settings type checks it; no
field is optional, so ``none`` is not a value.  ``[link]`` gives each arm by its
loss in dB (``loss_a_db``, ``loss_b_db``), not by a length.  Unknown
keys are rejected.
:func:`override_config` applies these rules to keys given another way,
such as the CLI's ``--windows``, ``--seed`` and ``--mode``.
"""
import dataclasses
import io

from .presets import ExperimentConfig


class ConfigError(ValueError):
    """Invalid or unparsable configuration; carries the field path."""


#: INI layout (section, ExperimentConfig attribute, key prefix) in file order.
_LAYOUT = (("link", "link", ""), ("detectors", "detectors", ""),
           ("protocol", "party_a", "a_"), ("protocol", "party_b", "b_"),
           ("noise", "noise", ""), ("security", "security", ""),
           ("run", "run", ""))
_SECTIONS = tuple(dict.fromkeys(sec for sec, _, _ in _LAYOUT))


def _parse(text: str, typ):
    """Convert one INI value to a field's type."""
    text = text.strip()
    if typ is str:
        return text
    return int(text) if typ is int else float(text)


def _build(section: str, raw: dict, defaults, prefix: str = ""):
    """Override ``defaults`` with the keys of ``raw`` it knows (popped)."""
    kwargs = {}
    for f in dataclasses.fields(defaults):
        key = prefix + f.name
        if key in raw:
            try:
                kwargs[f.name] = _parse(raw.pop(key), f.type)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
    try:
        return dataclasses.replace(defaults, **kwargs)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def override_config(cfg: ExperimentConfig,
                    raw: dict[str, dict[str, str]]) -> ExperimentConfig:
    """Copy ``cfg`` with the INI values ``raw[section][key]`` set.

    Each value is parsed by its field's type; unknown sections and keys
    are rejected.  ``raw`` is left as it is.
    """
    for sec in raw:
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}]")
    raw = {sec: dict(keys) for sec, keys in raw.items()}
    parts = {attr: _build(sec, raw[sec], getattr(cfg, attr), prefix)
             for sec, attr, prefix in _LAYOUT if sec in raw}
    unknown = [f"{sec}.{key}" for sec in _SECTIONS for key in raw.get(sec, ())]
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
    try:
        return dataclasses.replace(cfg, **parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str, base: ExperimentConfig) -> ExperimentConfig:
    """Read an INI config file, filling gaps from ``base``."""
    import configparser  # only INI input and output load it (cold start)
    # No interpolation: a value is read as written, so a ``%`` in it
    # reaches its field's parser and fails there, naming the key.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    return override_config(base, {sec: dict(parser[sec])
                                  for sec in parser.sections()})


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config as INI text; load(serialize(x)) round-trips."""
    import configparser
    parser = configparser.ConfigParser()
    for sec, attr, prefix in _LAYOUT:
        if sec not in parser:
            parser[sec] = {}
        part = getattr(cfg, attr)
        for f in dataclasses.fields(part):
            parser[sec][prefix + f.name] = str(getattr(part, f.name))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()

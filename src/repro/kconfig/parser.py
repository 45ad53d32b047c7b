""".config fragments: the ``CONFIG_X=y`` text the kernel's own tools use.

:func:`format_config_fragment` renders a resolved configuration the way
``config --full`` prints it; :func:`parse_config_fragment` reads such a
fragment back.  The option database itself is generated in Python
(:mod:`repro.kconfig.database`), so no Kconfig-language source is parsed.
"""

from __future__ import annotations


def format_config_fragment(values: dict) -> str:
    """Render a ``name -> Tristate/str/int`` mapping as a .config fragment.

    Disabled bool/tristate options render as ``# CONFIG_X is not set`` just
    like the kernel's own .config files.
    """
    from repro.kconfig.expr import Tristate

    rendered = []
    for name, value in sorted(values.items()):
        if isinstance(value, Tristate):
            if value is Tristate.NO:
                rendered.append(f"# CONFIG_{name} is not set")
            else:
                rendered.append(f"CONFIG_{name}={value}")
        elif isinstance(value, bool):
            rendered.append(
                f"CONFIG_{name}=y" if value else f"# CONFIG_{name} is not set"
            )
        elif isinstance(value, int):
            rendered.append(f"CONFIG_{name}={value}")
        else:
            rendered.append(f'CONFIG_{name}="{value}"')
    return "\n".join(rendered) + "\n"


def parse_config_fragment(text: str) -> dict:
    """Parse a .config fragment back into a ``name -> Tristate/str`` mapping."""
    from repro.kconfig.expr import Tristate

    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.endswith(" is not set") and "CONFIG_" in line:
                name = line[len("# CONFIG_"):-len(" is not set")]
                values[name] = Tristate.NO
            continue
        if not line.startswith("CONFIG_") or "=" not in line:
            raise ValueError(f"malformed .config line: {line!r}")
        name, _, value = line[len("CONFIG_"):].partition("=")
        if value in ("y", "m", "n"):
            values[name] = Tristate.from_str(value)
        elif value.startswith('"') and value.endswith('"'):
            values[name] = value[1:-1]
        else:
            try:
                values[name] = int(value, 0)
            except ValueError:
                values[name] = value
    return values

"""Configuration option model: options, choice groups and the option tree.

A :class:`ConfigOption` corresponds to one ``config FOO`` block in a Kconfig
file.  A :class:`KconfigTree` is the full database for one kernel source tree
(e.g. Linux 4.0), indexed by name and by source directory so the paper's
Figure 3 (options per directory) can be computed directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.kconfig.expr import TRUE, Expr, expr_symbols


class OptionType(enum.Enum):
    """The value type of a config option."""

    BOOL = "bool"
    TRISTATE = "tristate"
    INT = "int"
    HEX = "hex"
    STRING = "string"

    @property
    def is_symbolic(self) -> bool:
        """True for bool/tristate options that participate in dependency logic."""
        return self in (OptionType.BOOL, OptionType.TRISTATE)


@dataclass
class ConfigOption:
    """One kernel configuration option.

    Attributes mirror Kconfig semantics; the simulation-specific extras are:

    ``directory``
        Top-level source directory the option's Kconfig file lives in
        (``drivers``, ``net``, ...) -- the unit of Figure 3.
    ``category``
        Classification used by the paper's Figure 4 analysis (see
        :mod:`repro.core.classification`).  Empty for options the paper never
        classifies (those outside the microVM configuration).
    ``size_kb``
        Object-code contribution (text+data, KiB, uncompressed) when the
        option is built in.  Consumed by :mod:`repro.kbuild`.
    ``boot_cost_us``
        Initcall cost in simulated microseconds when built in.  Consumed by
        :mod:`repro.boot`.
    ``mem_cost_kb``
        Static runtime memory (KiB) the feature allocates at boot.  Consumed
        by :mod:`repro.mm`.
    """

    name: str
    option_type: OptionType = OptionType.BOOL
    directory: str = "kernel"
    depends_on: Expr = TRUE
    selects: Tuple[str, ...] = ()
    default: Optional[Expr] = None
    category: str = ""
    size_kb: float = 0.0
    boot_cost_us: float = 0.0
    mem_cost_kb: float = 0.0
    synthetic: bool = False

    def dependency_symbols(self) -> set:
        """Names of symbols this option's ``depends on`` references."""
        return expr_symbols(self.depends_on)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"invalid option name: {self.name!r}")


class DuplicateOptionError(ValueError):
    """Raised when two options with the same name are added to a tree."""


class UnknownOptionError(KeyError):
    """Raised when a config references an option not present in the tree."""


class KconfigTree:
    """The option database for one kernel source tree.

    Supports lookup by name, grouping by directory, and iteration.  The tree
    is append-only: options may be added but never mutated in place, which
    keeps resolved configurations consistent.
    """

    def __init__(self, kernel_version: str = "4.0") -> None:
        self.kernel_version = kernel_version
        self._options: Dict[str, ConfigOption] = {}
        self._by_directory: Dict[str, List[str]] = {}
        self._choices: Dict[str, "ChoiceGroup"] = {}
        self._choice_of_member: Dict[str, str] = {}
        self._resolution_index = None

    # -- resolution acceleration -------------------------------------------

    def resolution_index(self):
        """The cached :class:`~repro.kconfig.index.ResolutionIndex`.

        Built lazily on first resolution and reused for the life of the
        tree.  The tree is append-only (options/choices may be added but
        never mutated in place), so a size check is sufficient to detect
        a stale index and rebuild it.
        """
        from repro.kconfig.index import ResolutionIndex

        index = self._resolution_index
        if (
            index is None
            or index.option_count != len(self._options)
            or index.choice_count != len(self._choices)
        ):
            index = ResolutionIndex(self)
            self._resolution_index = index
        return index

    def fingerprint(self) -> str:
        """Content fingerprint of the tree (options, semantics, choices)."""
        return self.resolution_index().fingerprint

    # -- population ------------------------------------------------------

    def add(self, option: ConfigOption) -> ConfigOption:
        """Add *option*; raises :class:`DuplicateOptionError` on name clash."""
        if option.name in self._options:
            raise DuplicateOptionError(option.name)
        self._options[option.name] = option
        self._by_directory.setdefault(option.directory, []).append(option.name)
        return option

    def add_all(self, options: Iterable[ConfigOption]) -> None:
        for option in options:
            self.add(option)

    def add_choice(self, choice: "ChoiceGroup") -> "ChoiceGroup":
        """Register a choice group; members must already be in the tree."""
        if choice.name in self._choices:
            raise DuplicateOptionError(choice.name)
        for member in choice.members:
            if member not in self._options:
                raise UnknownOptionError(member)
            if member in self._choice_of_member:
                raise ValueError(
                    f"{member} already belongs to choice "
                    f"{self._choice_of_member[member]!r}"
                )
        self._choices[choice.name] = choice
        for member in choice.members:
            self._choice_of_member[member] = choice.name
        return choice

    def choices(self) -> List["ChoiceGroup"]:
        return list(self._choices.values())

    def choice_of(self, option_name: str) -> Optional["ChoiceGroup"]:
        """The choice group *option_name* belongs to, if any."""
        choice_name = self._choice_of_member.get(option_name)
        return self._choices.get(choice_name) if choice_name else None

    # -- lookup ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._options

    def __getitem__(self, name: str) -> ConfigOption:
        try:
            return self._options[name]
        except KeyError:
            raise UnknownOptionError(name) from None

    def get(self, name: str) -> Optional[ConfigOption]:
        return self._options.get(name)

    def __iter__(self) -> Iterator[ConfigOption]:
        return iter(self._options.values())

    def __len__(self) -> int:
        return len(self._options)

    def names(self) -> Iterator[str]:
        return iter(self._options)

    # -- aggregation (Figure 3) -------------------------------------------

    def directories(self) -> List[str]:
        """Directories in insertion order."""
        return list(self._by_directory)

    def options_in(self, directory: str) -> List[ConfigOption]:
        return [self._options[name] for name in self._by_directory.get(directory, [])]

    def count_by_directory(self) -> Dict[str, int]:
        """Map directory -> number of options (paper Figure 3, 'total' series)."""
        return {d: len(names) for d, names in self._by_directory.items()}

    def count_selected_by_directory(self, selected: Iterable[str]) -> Dict[str, int]:
        """Like :meth:`count_by_directory` restricted to *selected* options."""
        counts = {d: 0 for d in self._by_directory}
        for name in selected:
            option = self.get(name)
            if option is not None:
                counts[option.directory] += 1
        return counts

    # -- validation --------------------------------------------------------

    def undefined_references(self) -> Dict[str, set]:
        """Map option name -> referenced-but-undefined dependency symbols.

        A healthy curated database has none; synthetic filler options never
        reference other symbols, so they cannot appear here.
        """
        undefined = {}
        for option in self:
            missing = {
                symbol
                for symbol in option.dependency_symbols() | set(option.selects)
                if symbol not in self._options
            }
            if missing:
                undefined[option.name] = missing
        return undefined


@dataclass
class ChoiceGroup:
    """A Kconfig ``choice``/``endchoice`` block: mutually exclusive options.

    Exactly one member is active in a resolved bool choice (the kernel's
    HZ_100/HZ_250/HZ_1000 tick-frequency selection is the canonical
    example).  ``default_member`` is used when no member is requested.
    """

    name: str
    members: Tuple[str, ...]
    default_member: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError(
                f"choice {self.name!r} needs at least two members"
            )
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"choice {self.name!r} has duplicate members")
        if (self.default_member is not None
                and self.default_member not in self.members):
            raise ValueError(
                f"choice {self.name!r} default {self.default_member!r} is "
                "not a member"
            )

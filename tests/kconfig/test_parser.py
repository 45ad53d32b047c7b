"""Tests for .config fragment rendering and parsing."""

import pytest

from repro.kconfig.expr import Tristate
from repro.kconfig.parser import format_config_fragment, parse_config_fragment


class TestConfigFragments:
    def test_format_enabled_and_disabled(self):
        text = format_config_fragment(
            {"NET": Tristate.YES, "INET": Tristate.NO, "CRC32": Tristate.MODULE}
        )
        assert "CONFIG_NET=y" in text
        assert "# CONFIG_INET is not set" in text
        assert "CONFIG_CRC32=m" in text

    def test_format_string_and_int(self):
        text = format_config_fragment({"CMDLINE": "console=ttyS0", "NR": 4})
        assert 'CONFIG_CMDLINE="console=ttyS0"' in text
        assert "CONFIG_NR=4" in text

    def test_roundtrip(self):
        values = {
            "NET": Tristate.YES,
            "INET": Tristate.NO,
            "CRC32": Tristate.MODULE,
            "CMDLINE": "quiet",
            "NR_CPUS": 8,
        }
        assert parse_config_fragment(format_config_fragment(values)) == values

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_config_fragment("not a config line\n")

    def test_parse_ignores_plain_comments(self):
        assert parse_config_fragment("# just a comment\n") == {}

"""Tests for container images, the ext2 builder and init-script generation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import get_app
from repro.kml.libc import LibcVariant
from repro.rootfs.container import (
    ContainerImage,
    FileEntry,
    Layer,
    alpine_base_layer,
    container_for_app,
)
from repro.rootfs.ext2 import BLOCK_SIZE, Ext2Error, build_ext2
from repro.rootfs.init import (
    generate_init_script,
    parse_init_script,
)


class TestFileEntry:
    def test_relative_paths_rejected(self):
        with pytest.raises(ValueError):
            FileEntry("usr/bin/app", 10)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            FileEntry("/x", -1)


class TestContainerImage:
    def test_layers_override_in_order(self):
        image = ContainerImage(name="test")
        image.add_layer(Layer("base", [FileEntry("/etc/conf", 1.0)]))
        image.add_layer(Layer("patch", [FileEntry("/etc/conf", 2.0)]))
        assert image.flatten()["/etc/conf"].size_kb == 2.0

    def test_alpine_base_has_musl(self):
        layer = alpine_base_layer(LibcVariant.MUSL)
        paths = {entry.path for entry in layer.files}
        assert "/lib/ld-musl-x86_64.so.1" in paths
        assert "/bin/busybox" in paths

    def test_container_for_app_includes_binary_and_metadata(self):
        redis = get_app("redis")
        image = container_for_app(redis)
        flattened = image.flatten()
        assert "/usr/bin/redis-server" in flattened
        assert image.entrypoint[0] == "/usr/bin/redis-server"
        assert dict(image.env).get("PATH")

    def test_kml_libc_variant_recorded_in_layer_name(self):
        image = container_for_app(get_app("redis"), LibcVariant.MUSL_KML)
        assert any("musl-kml" in layer.name for layer in image.layers)

    def test_total_size_positive(self):
        assert container_for_app(get_app("nginx")).total_size_kb > 1000


class TestExt2Builder:
    def test_builds_with_parent_directories(self):
        image = build_ext2([FileEntry("/usr/bin/app", 100, executable=True)])
        assert image.exists("/usr/bin/app")
        assert image.lookup("/usr").is_directory
        assert image.lookup("/usr/bin").is_directory

    def test_duplicate_paths_rejected(self):
        with pytest.raises(Ext2Error):
            build_ext2([FileEntry("/a", 1), FileEntry("/a", 2)])

    def test_lookup_missing_raises(self):
        image = build_ext2([])
        with pytest.raises(Ext2Error):
            image.lookup("/ghost")

    def test_list_directory(self):
        image = build_ext2(
            [FileEntry("/bin/sh", 1), FileEntry("/bin/ls", 1),
             FileEntry("/etc/passwd", 1)]
        )
        assert image.list_directory("/bin") == ["ls", "sh"]
        assert set(image.list_directory("/")) == {"bin", "etc"}

    def test_fast_symlinks_use_no_data_blocks(self):
        image = build_ext2([FileEntry("/sh", 0, symlink_to="/bin/busybox")])
        assert image.lookup("/sh").data_blocks == 0

    def test_small_file_needs_no_indirect_blocks(self):
        image = build_ext2([FileEntry("/small", 10)])
        assert image.lookup("/small").indirect_blocks == 0

    def test_large_file_needs_indirect_blocks(self):
        image = build_ext2([FileEntry("/large", 2048)])  # 2 MiB, 2048 blocks
        inode = image.lookup("/large")
        assert inode.indirect_blocks >= 1 + 1 + 7  # single + double tree

    def test_image_size_exceeds_payload(self):
        files = [FileEntry(f"/f{i}", 64) for i in range(10)]
        image = build_ext2(files)
        assert image.size_kb > 640  # payload + metadata

    def test_inode_numbers_unique(self):
        image = build_ext2(
            [FileEntry("/a/b/c", 1), FileEntry("/a/d", 1)]
        )
        numbers = [inode.number for inode in image.inodes.values()]
        assert len(numbers) == len(set(numbers))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(
            st.lists(
                st.text(alphabet="abcd", min_size=1, max_size=4),
                min_size=1, max_size=3,
            ),
            st.floats(min_value=0, max_value=500),
        ),
        min_size=1, max_size=12,
    ))
    def test_roundtrip_property(self, raw_files):
        """Every stored file is retrievable with its exact size."""
        files, seen = [], set()
        for parts, size_kb in raw_files:
            path = "/" + "/".join(parts)
            if path in seen or any(path.startswith(p + "/") or
                                   p.startswith(path + "/") for p in seen):
                continue
            seen.add(path)
            files.append(FileEntry(path, size_kb))
        image = build_ext2(files)
        for entry in files:
            inode = image.lookup(entry.path)
            assert inode.size_bytes == int(entry.size_kb * 1024)
            expected_blocks = (inode.size_bytes + BLOCK_SIZE - 1) // BLOCK_SIZE
            assert inode.data_blocks == expected_blocks


class TestInitScript:
    def test_mounts_follow_config(self):
        script = generate_init_script(
            ("/usr/bin/redis-server",),
            enabled_options=["PROC_FS", "TMPFS"],
        )
        parsed = parse_init_script(script)
        assert set(parsed["mounts"]) == {"proc", "tmpfs"}

    def test_no_mounts_without_options(self):
        script = generate_init_script(("/hello",))
        assert parse_init_script(script)["mounts"] == []

    def test_network_setup(self):
        script = generate_init_script(("/srv",), needs_network=True)
        assert parse_init_script(script)["network"]
        assert "eth0" in script

    def test_env_exported(self):
        script = generate_init_script(
            ("/app",), env=[("PGDATA", "/var/lib/pg")]
        )
        assert parse_init_script(script)["env"]["PGDATA"] == "/var/lib/pg"

    def test_entrypoint_execed_as_pid1(self):
        script = generate_init_script(("/usr/sbin/nginx", "-g", "daemon off;"))
        parsed = parse_init_script(script)
        assert parsed["entrypoint"][0] == "/usr/sbin/nginx"
        assert script.rstrip().splitlines()[-1].startswith("exec ")

    def test_empty_entrypoint_rejected(self):
        with pytest.raises(ValueError):
            generate_init_script(())

    def test_quoting_roundtrip(self):
        script = generate_init_script(
            ("/bin/sh", "-c", "echo 'it works'"),
            env=[("MOTD", "hello world")],
        )
        parsed = parse_init_script(script)
        assert parsed["env"]["MOTD"] == "hello world"

    def test_ulimit_emitted_when_requested(self):
        script = generate_init_script(("/srv",), ulimit_nofile=4096)
        assert "ulimit -n 4096" in script

"""A small ext2 image builder.

Lays out a flattened container filesystem into ext2-style structures
(superblock, inode table, block bitmap, data blocks with indirect blocks for
large files) and computes the resulting image size.  The structure is real
enough to round-trip: files can be listed and read back out of the image
model, which the Lupine guest uses to locate its startup script.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.rootfs.container import FileEntry

BLOCK_SIZE = 1024
INODE_SIZE = 128
POINTERS_PER_BLOCK = BLOCK_SIZE // 4
DIRECT_POINTERS = 12


class Ext2Error(ValueError):
    """Raised for malformed filesystems (duplicate paths, no room)."""


@dataclass
class Inode:
    """One ext2 inode."""

    number: int
    path: str
    size_bytes: int
    is_directory: bool = False
    symlink_target: Optional[str] = None
    executable: bool = False

    @property
    def data_blocks(self) -> int:
        if self.symlink_target is not None and len(self.symlink_target) < 60:
            return 0  # fast symlink, target stored in the inode
        return (self.size_bytes + BLOCK_SIZE - 1) // BLOCK_SIZE

    @property
    def indirect_blocks(self) -> int:
        """Single/double indirect pointer blocks needed for this file."""
        blocks = self.data_blocks
        if blocks <= DIRECT_POINTERS:
            return 0
        remaining = blocks - DIRECT_POINTERS
        single = 1
        if remaining <= POINTERS_PER_BLOCK:
            return single
        remaining -= POINTERS_PER_BLOCK
        double_leaves = (remaining + POINTERS_PER_BLOCK - 1) // POINTERS_PER_BLOCK
        return single + 1 + double_leaves

    @property
    def total_blocks(self) -> int:
        return self.data_blocks + self.indirect_blocks


@dataclass
class Ext2Image:
    """A built ext2 image."""

    label: str
    inodes: Dict[str, Inode] = field(default_factory=dict)

    @property
    def inode_count(self) -> int:
        return len(self.inodes)

    @property
    def data_block_count(self) -> int:
        return sum(inode.total_blocks for inode in self.inodes.values())

    @property
    def size_kb(self) -> float:
        """Total image size: metadata + bitmaps + inode table + data."""
        superblock_blocks = 2  # boot block + superblock/group descriptors
        inode_table_blocks = (
            self.inode_count * INODE_SIZE + BLOCK_SIZE - 1
        ) // BLOCK_SIZE
        bitmap_blocks = 2 + self.data_block_count // (8 * BLOCK_SIZE)
        directory_blocks = sum(
            1 for inode in self.inodes.values() if inode.is_directory
        )
        total_blocks = (
            superblock_blocks
            + inode_table_blocks
            + bitmap_blocks
            + directory_blocks
            + self.data_block_count
        )
        return total_blocks * BLOCK_SIZE / 1024.0

    # -- read-back --------------------------------------------------------

    def lookup(self, path: str) -> Inode:
        try:
            return self.inodes[path]
        except KeyError:
            raise Ext2Error(f"no such file in image: {path}") from None

    def exists(self, path: str) -> bool:
        return path in self.inodes

    def list_directory(self, path: str) -> List[str]:
        prefix = path.rstrip("/") + "/"
        names = set()
        for candidate in self.inodes:
            if candidate.startswith(prefix) and candidate != path:
                remainder = candidate[len(prefix):]
                names.add(remainder.split("/", 1)[0])
        return sorted(names)


def _parent_directories(path: str) -> Iterable[str]:
    parts = path.strip("/").split("/")
    for index in range(1, len(parts)):
        yield "/" + "/".join(parts[:index])


def build_ext2(
    files: Iterable[FileEntry], label: str = "lupine-rootfs"
) -> Ext2Image:
    """Build an ext2 image from *files*, creating parent directories."""
    image = Ext2Image(label=label)
    next_inode = 2  # inode 1 reserved, 2 is the root directory
    image.inodes["/"] = Inode(
        number=next_inode, path="/", size_bytes=BLOCK_SIZE, is_directory=True
    )
    for entry in files:
        if entry.path in image.inodes:
            raise Ext2Error(f"duplicate path: {entry.path}")
        for directory in _parent_directories(entry.path):
            if directory not in image.inodes:
                next_inode += 1
                image.inodes[directory] = Inode(
                    number=next_inode,
                    path=directory,
                    size_bytes=BLOCK_SIZE,
                    is_directory=True,
                )
        next_inode += 1
        image.inodes[entry.path] = Inode(
            number=next_inode,
            path=entry.path,
            size_bytes=int(entry.size_kb * 1024),
            symlink_target=entry.symlink_to,
            executable=entry.executable,
        )
    return image

"""IPv4 addressing utilities used throughout the Duet reproduction.

Addresses are plain ``int`` values (0..2**32-1) for speed; this module
provides parsing, formatting, prefix arithmetic and a longest-prefix-match
(LPM) table.  The LPM table is the substrate for the BGP-style routing
behaviour Duet relies on: HMuxes announce /32 routes for the VIPs assigned
to them while SMuxes announce covering aggregate prefixes, and longest
prefix match sends traffic to the HMux whenever one is alive (paper S3.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

MAX_ADDR = 0xFFFFFFFF


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


def parse_ip(text: str) -> int:
    """Parse dotted-quad ``text`` into an integer address.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(addr: int) -> str:
    """Format integer ``addr`` as a dotted quad.

    >>> format_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= addr <= MAX_ADDR:
        raise AddressError(f"address out of range: {addr}")
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def prefix_mask(length: int) -> int:
    """Return the netmask (as int) for a prefix of ``length`` bits."""
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    if length == 0:
        return 0
    return (MAX_ADDR << (32 - length)) & MAX_ADDR


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix (network address + mask length).

    The network address is canonicalized: host bits must be zero, which is
    enforced at construction so two equal prefixes always compare equal.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= MAX_ADDR:
            raise AddressError(f"network out of range: {self.network}")
        if self.network & ~prefix_mask(self.length) & MAX_ADDR:
            raise AddressError(
                f"host bits set in prefix {format_ip(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (a bare address means /32)."""
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"malformed prefix: {text!r}")
            return cls(parse_ip(addr_text), int(len_text))
        return cls(parse_ip(text), 32)

    @classmethod
    def host(cls, addr: int) -> "Prefix":
        """The /32 prefix covering a single address."""
        return cls(addr, 32)

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside this prefix."""
        return (addr & prefix_mask(self.length)) == self.network

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    @property
    def last_address(self) -> int:
        return self.network + self.num_addresses - 1

    def __str__(self) -> str:
        return f"{format_ip(self.network)}/{self.length}"


class LpmTable:
    """A longest-prefix-match table mapping prefixes to arbitrary values.

    Implemented as one dict per prefix length, probed from /32 downward.
    Lookup is O(32) dict probes which is plenty fast for simulation use and
    keeps insertion/removal O(1) — the access pattern in the Duet control
    plane is update-heavy (BGP announce/withdraw on every VIP migration).
    """

    def __init__(self) -> None:
        self._by_length: List[Dict[int, object]] = [{} for _ in range(33)]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value: object) -> None:
        """Insert or replace the route for ``prefix``."""
        bucket = self._by_length[prefix.length]
        if prefix.network not in bucket:
            self._size += 1
        bucket[prefix.network] = value

    def remove(self, prefix: Prefix) -> bool:
        """Remove the route for ``prefix``; returns False if absent."""
        bucket = self._by_length[prefix.length]
        if prefix.network in bucket:
            del bucket[prefix.network]
            self._size -= 1
            return True
        return False

    def get_exact(self, prefix: Prefix) -> Optional[object]:
        """Return the value stored for exactly ``prefix`` (no LPM)."""
        return self._by_length[prefix.length].get(prefix.network)

    def lookup(self, addr: int) -> Optional[object]:
        """Longest-prefix-match lookup; None if no route covers ``addr``."""
        match = self.lookup_with_prefix(addr)
        return match[1] if match is not None else None

    def lookup_with_prefix(self, addr: int) -> Optional[Tuple[Prefix, object]]:
        """LPM lookup returning the winning (prefix, value) pair."""
        for length in range(32, -1, -1):
            bucket = self._by_length[length]
            if not bucket:
                continue
            network = addr & prefix_mask(length)
            if network in bucket:
                return Prefix(network, length), bucket[network]
        return None

    def entries(self) -> Iterator[Tuple[Prefix, object]]:
        """Iterate (prefix, value) pairs, longest prefixes first."""
        for length in range(32, -1, -1):
            for network, value in sorted(self._by_length[length].items()):
                yield Prefix(network, length), value


class AddressAllocator:
    """Sequential allocator of addresses from a pool prefix.

    Used by the workload generator to hand out VIPs, DIPs and host IPs from
    disjoint pools so that address classes never collide.
    """

    def __init__(self, pool: Prefix) -> None:
        self.pool = pool
        self._next = pool.network

    @property
    def allocated(self) -> int:
        return self._next - self.pool.network

    @property
    def remaining(self) -> int:
        return self.pool.num_addresses - self.allocated

    def allocate(self) -> int:
        """Return a fresh address; raises AddressError when exhausted."""
        if self._next > self.pool.last_address:
            raise AddressError(f"address pool {self.pool} exhausted")
        addr = self._next
        self._next += 1
        return addr

    def allocate_block(self, count: int) -> List[int]:
        """Allocate ``count`` addresses at once."""
        return [self.allocate() for _ in range(count)]

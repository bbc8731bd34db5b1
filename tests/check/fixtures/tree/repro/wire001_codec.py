"""WIRE001 plants: hand-written codecs next to algorithms named encode."""

import struct
from dataclasses import dataclass


@dataclass
class Msg:
    path: str
    offset: int

    def wire_size(self):
        return 8 + len(self.path)


class Rec:
    def encode(self):
        return struct.pack("<I", self.x)

    @classmethod
    def decode(cls, buf):
        return cls(*struct.unpack("<I", buf))

    @staticmethod
    def parse(buf):
        return buf


class Waived:
    def wire_size(self):  # reprolint: disable=WIRE001
        return 4


class Backend:
    def encode(self, base, target, *, meter=None):
        return base, target

    def decode(self, buf):
        return buf


from struct import Struct  # reprolint: disable=WIRE001

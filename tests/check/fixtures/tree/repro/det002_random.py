"""DET002 plants: entropy modules by import, the os calls by attribute."""

import os
import random
import secrets
import uuid
from random import randint
import random as waived  # reprolint: disable=DET002

SEEDED = random.Random(7)
ROLL = random.random()
DIE = randint(1, 6)
TOKEN = secrets.token_hex()
ID = uuid.uuid4()
KEY = os.urandom(16)
ALSO = os.getrandom(16)
WAIVED = os.urandom(4)  # reprolint: disable=DET002
PATH = os.path.join("a", "b")


def lazy():
    import uuid as u

    return u.uuid1()


def from_os():
    from os import urandom

    return urandom(8)


def by_name(importlib):
    return importlib.import_module("secrets").token_hex()

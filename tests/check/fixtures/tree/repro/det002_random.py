"""DET002 plants: every unseeded entropy source, one seeded generator."""

import os
import random
import secrets
import uuid
from random import randint

SEEDED = random.Random(7)
ROLL = random.random()
DIE = randint(1, 6)
KEY = os.urandom(16)
TOKEN = secrets.token_hex()
ID = uuid.uuid4()
SYSTEM = random.SystemRandom()
WAIVED = random.choice([1, 2])  # reprolint: disable=DET002
PATH = os.path.join("a", "b")


def lazy():
    import uuid as u

    return u.uuid1()

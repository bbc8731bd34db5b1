"""PY001-PY003 plants."""


def list_default(xs=[]):
    return xs


def dict_call_default(xs=dict()):
    return xs


def kwonly_default(*, xs={}):
    return xs


def waived_default(xs=[]):  # reprolint: disable=PY001
    return xs


def fine_defaults(x=None, y=(), z=0):
    return x, y, z


PICK = lambda xs=set(): xs


def swallow():
    try:
        return 1
    except:
        return 0


def swallow_waived():
    try:
        return 1
    except:  # reprolint: disable=PY002
        return 0


def narrow():
    try:
        return 1
    except ValueError:
        return 0


def noisy():
    print("library noise")
    print("waived noise")  # reprolint: disable=PY003

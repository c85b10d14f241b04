"""Known-bad manifest: every stale entry is reported at line 1."""  # EXPECT: MAN001


def present():
    return 1

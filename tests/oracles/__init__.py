"""Reference implementations the equivalence suites compare ``src`` against.

Each module keeps a slow, obviously-correct form of a job that ``src`` now
does one faster way; ``src`` never imports them.
"""

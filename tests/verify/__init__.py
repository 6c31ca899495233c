# package marker: keeps tests/verify off sys.path so this directory's
# conftest.py cannot shadow tests/conftest.py for the suites that do
# `from conftest import ...` (pytest then imports us as verify.*)

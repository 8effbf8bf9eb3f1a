"""corpus_digest.py compare on hand-written digests, and parse_digest."""

import io

import pytest

from corpus_digest import compare, parse_digest

REFSOLVE_OLD = """\
g1 eliminate default unsat 10
g2 eliminate flags sat 4
g3 preserve default error expansion budget 20000 exceeded
"""
REFSOLVE_NEW = """\
g1 eliminate default unsat 3
g2 eliminate flags unknown 20001
g3 preserve default unsat 7
"""
SHA = '0' * 64
TRANSLATE_OLD = """\
g1 eliminate default %s 120 (1,)
g2 eliminate default %s 80 (1,)
g3 expand-all inline %s 50 (1,)
""" % (SHA, SHA, SHA)
TRANSLATE_NEW = """\
g1 eliminate default %s 90 (2,)
g2 eliminate default %s 85 (1,)
g3 expand-all inline error expansion budget 20000 exceeded
""" % ('1' * 64, '2' * 64)


def _compare(tmp_path, old, new):
    (tmp_path / 'old.txt').write_text(old)
    (tmp_path / 'new.txt').write_text(new)
    out = io.StringIO()
    compare(tmp_path / 'old.txt', tmp_path / 'new.txt', out)
    return out.getvalue().splitlines()


def test_compare_refsolve_digests(tmp_path):
    assert _compare(tmp_path, REFSOLVE_OLD, REFSOLVE_NEW) == [
        'lines: 3 old, 3 new, 3 in both, 3 changed',
        'changed eliminate default: 1',
        'changed eliminate flags: 1',
        'changed preserve default: 1',
        'translate error gone: g3 preserve default'
        ' error expansion budget 20000 exceeded',
        'answer g2 eliminate flags: sat 4 -> unknown 20001',
        'nodes: 14 old, 20004 new; on the 1 lines up and 1 down,'
        ' 14 old, 20004 new',
    ]


def test_compare_translate_digests(tmp_path):
    assert _compare(tmp_path, TRANSLATE_OLD, TRANSLATE_NEW) == [
        'lines: 3 old, 3 new, 3 in both, 3 changed',
        'changed eliminate default: 2',
        'changed expand-all inline: 1',
        'translate error new: g3 expand-all inline'
        ' error expansion budget 20000 exceeded',
        'scripts: 1 shorter, 1 longer',
    ]


def test_compare_refuses_digests_of_two_kinds(tmp_path):
    with pytest.raises(SystemExit):
        _compare(tmp_path, REFSOLVE_OLD, TRANSLATE_NEW)


def test_parse_digest_writes_every_diagnostic_with_its_position():
    assert parse_digest('theorem t <=> ;\ntype D = nat[];') == (
        "line 1 col 15: expected term, got ';'; "
        "line 2 col 14: expected type bound, got ']'")
    assert len(parse_digest('theorem t <=> true;')) == 64

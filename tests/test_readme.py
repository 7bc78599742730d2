"""The README's library quick tour runs and gives the results it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_readme_quick_tour():
    code = _quick_tour()
    ns: dict = {}
    exec(compile(code, str(README), "exec"), ns)
    # every "expr  # -> value" line states what expr evaluates to
    documented = re.findall(r"^(\S[^#\n]*?)\s+# -> (\d+)", code, re.M)
    assert [int(v) for _, v in documented] == [4, 1, 1, 6]
    for expr, value in documented:
        assert eval(expr, ns) == int(value), expr
    rec = ns["rec"]
    assert rec.status == "found"
    assert rec.fullrank_witness["level"] == 5
    assert rec.fullrank_witness["rank"] == rec.fullrank_witness["cols"]
    rec.certificate.validate()

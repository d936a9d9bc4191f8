"""Minimal VCD conformance checker used by the trace and acceptance tests.

Validates header structure, scope balance, identifier definitions, change
syntax, that each change has the form of its var's declared type, and
ascending change times. Returns the parsed structure so tests can assert on
contents.
"""

import re

# The one change-line form each var type takes: wire a scalar, reg a b-vector,
# real an r-value, string an s-value.
_CHANGE_RES = {
    "wire": re.compile(r"^[01xzXZ](\S+)$"),
    "reg": re.compile(r"^b[01xzXZ]+ (\S+)$"),
    "real": re.compile(r"^r\S+ (\S+)$"),
    "string": re.compile(r"^s\S* (\S+)$"),
}


def check_vcd(text: str) -> dict:
    lines = text.splitlines()
    i = 0
    ids = {}
    scopes = []
    scope_stack = []
    timescale = None

    # Header section.
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "$timescale":
            assert tokens[-1] == "$end", f"unterminated $timescale: {line}"
            timescale = " ".join(tokens[1:-1])
        elif tokens[0] == "$scope":
            assert len(tokens) == 4 and tokens[1] == "module" and tokens[3] == "$end", f"bad $scope: {line}"
            scope_stack.append(tokens[2])
            scopes.append(tokens[2])
        elif tokens[0] == "$upscope":
            assert scope_stack, "$upscope without open scope"
            scope_stack.pop()
        elif tokens[0] == "$var":
            assert tokens[-1] == "$end" and len(tokens) == 6, f"bad $var: {line}"
            _, var_type, width, code, name, _ = tokens
            assert var_type in _CHANGE_RES, f"bad var type: {var_type}"
            assert width.isdigit(), f"bad var width: {width}"
            assert code not in ids, f"duplicate id code: {code}"
            assert scope_stack, f"$var outside scope: {line}"
            ids[code] = (scope_stack[-1], name, var_type)
        elif tokens[0] == "$enddefinitions":
            assert tokens[-1] == "$end", f"bad $enddefinitions: {line}"
            break
        else:
            raise AssertionError(f"unexpected header line: {line}")
    assert timescale is not None, "missing $timescale"
    assert not scope_stack, "unbalanced scopes at $enddefinitions"

    # Value-change section.
    changes = []
    current_time = None
    in_dumpvars = False
    for line in lines[i:]:
        line = line.strip()
        if not line:
            continue
        if line == "$dumpvars":
            assert current_time is None, "$dumpvars after change section began"
            in_dumpvars = True
            continue
        if line == "$end":
            assert in_dumpvars, "stray $end"
            in_dumpvars = False
            continue
        if line.startswith("#"):
            assert not in_dumpvars, "time stamp inside $dumpvars"
            t = int(line[1:])
            assert t >= 0, f"negative change time: {t}"
            if current_time is not None:
                assert t > current_time, f"non-ascending time: {t} after {current_time}"
            current_time = t
            continue
        for var_type, regex in _CHANGE_RES.items():  # the forms start with distinct characters
            if m := regex.match(line):
                break
        else:
            raise AssertionError(f"unparseable change line: {line}")
        code = m.group(1)
        assert code in ids, f"change references undefined id: {code}"
        assert ids[code][2] == var_type, f"{var_type} change for a {ids[code][2]} var: {line}"
        assert in_dumpvars or current_time is not None, f"change before any time stamp: {line}"
        changes.append((None if in_dumpvars else current_time, code, line))
    assert not in_dumpvars, "unterminated $dumpvars"

    return {"timescale": timescale, "scopes": scopes, "ids": ids, "changes": changes}

"""Independently derived expectations used by the test suite.

Everything in this module is written without importing ``haiproto`` so that the
package under test cannot influence the expected values, except the replay
reference, which re-runs a trace through ``haiproto.run`` by design, and the
step loop reference, which checks ``haiproto``'s payloads and types.  The
classifier oracle is a deliberately naive brute-force implementation; the
tables below were derived by hand from the shipped catalog design and frozen
here.
"""

from __future__ import annotations

import json
import marshal
import math
import zlib


# --------------------------------------------------------------------------
# Brute-force nearest-centroid oracle.
# --------------------------------------------------------------------------


def oracle_classify(
    examples: list[tuple[tuple[float, ...], str]], point: tuple[float, ...]
) -> str:
    """Classify ``point`` by the nearest per-label centroid.

    Centroids are coordinate-wise ``sum/len``; distances are squared
    Euclidean computed in coordinate order; ties break to the
    lexicographically smallest label.  Raises ``ValueError`` on an empty
    example set.
    """
    if not examples:
        raise ValueError("no training examples")
    by_label: dict[str, list[tuple[float, ...]]] = {}
    for vector, label in examples:
        by_label.setdefault(label, []).append(vector)
    best_label: str | None = None
    best_dist: float | None = None
    for label in sorted(by_label):
        vectors = by_label[label]
        dims = len(vectors[0])
        centroid = tuple(
            sum(vector[d] for vector in vectors) / len(vectors) for d in range(dims)
        )
        dist = 0.0
        for a, b in zip(point, centroid):
            dist += (a - b) * (a - b)
        if best_dist is None or dist < best_dist:
            best_dist = dist
            best_label = label
    assert best_label is not None
    return best_label


# Six-point demo dataset: two points per label, chosen so every training point
# is strictly nearest to its own centroid.
SIX_POINT_EXAMPLES: list[tuple[tuple[float, ...], str]] = [
    ((0.0, 0.0), "happy"),
    ((10.0, 10.0), "sad"),
    ((5.0, 5.0), "calm"),
    ((1.0, 1.0), "happy"),
    ((9.0, 9.0), "sad"),
    ((4.0, 4.0), "calm"),
]

# Hand-checked: centroids happy=(0.5,0.5), sad=(9.5,9.5), calm=(4.5,4.5).
SIX_POINT_EXPECTED: dict[tuple[float, ...], str] = {
    (0.0, 0.0): "happy",
    (1.0, 1.0): "happy",
    (10.0, 10.0): "sad",
    (9.0, 9.0): "sad",
    (5.0, 5.0): "calm",
    (4.0, 4.0): "calm",
    (2.0, 2.0): "happy",  # d2(happy)=4.5 < d2(calm)=12.5
    (3.0, 2.5): "calm",  # d2(calm)=6.25 < d2(happy)=10.25
    (7.0, 7.0): "calm",  # exact tie with sad (12.5 each); lexicographic break
}

# Tie case: centroids a=(2,0), b=(0,0); (1,0) is equidistant; "a" < "b" fails,
# lexicographic tie-break picks "a".
TIE_EXAMPLES: list[tuple[tuple[float, ...], str]] = [
    ((0.0, 0.0), "b"),
    ((2.0, 0.0), "a"),
]
TIE_POINT: tuple[float, ...] = (1.0, 0.0)
TIE_EXPECTED = "a"


# --------------------------------------------------------------------------
# Catalog expectations (hand-derived, frozen).
# --------------------------------------------------------------------------

# The canonical action vocabulary that must exist in the shipped catalog.
CORE_ACTIONS: frozenset[str] = frozenset(
    {
        "req-class_selection",
        "select-class",
        "req-new_class_sample",
        "req-class_sample",
        "req-sample_class",
        "req-gsample_class",
        "req-sel_sample_class",
        "annotate-sample",
        "show-policy",
        "give-evaluative_advice",
        "modify-prediction",
        "show-candidate_samples",
        "select-sample",
        "modify-sample",
        "generate-sample",
        "modify-mparams",
        "modify-features",
        "req-prediction_evaluation",
        "evaluate-prediction",
        "show-prediction_XAI",
    }
)

# The canonical pattern rows: name -> exact action sequence.
CORE_PATTERNS: dict[str, list[str]] = {
    "class-selection": ["req-class_selection", "select-class"],
    "new_sample": ["req-new_sample", "generate-sample"],
    "new_class_sample": ["req-new_class_sample", "generate-class_sample"],
    "sample-annotation": ["req-sample_class", "annotate-sample"],
    "new_sample-annotation": ["req-new_sample", "req-gsample_class"],
    "candidate_samples": ["req-candidate_samples", "show-candidate_samples"],
    "sample-modification": ["req-modified_sample", "modify-sample"],
    "feature-modification": ["req-modified_feature", "modify-features"],
    "parameter-modification": ["req-mparam-modification", "modify-mparams"],
    "prediction-modification": ["annotate-sample", "modify-prediction"],
    "policy-visualization": ["show-policy"],
    "informative_advice": ["req-informative_advice", "give-informative_advice"],
    "evaluative_advice": ["req-evaluative_advice", "give-evaluative_advice"],
    "prediction-based_XAI": ["req-prediction_XAI", "show-prediction_XAI"],
    "outcome-evaluation": ["req-outcome_evaluation", "evaluate-outcome"],
    "prediction_parameters": ["req-prediction_params", "show-prediction_params"],
    "turn_taking-evaluation": [
        "generate-and-turn",
        "capture-and-generate",
        "evaluate-outcome",
    ],
    "prediction-with-XAI": [
        "select-sample",
        "show-prediction_XAI",
        "modify-annotation",
    ],
    "recommendations": [
        "req-recommendations",
        "show-recommendations",
        "evaluate-recommendation",
    ],
}

# Message label groups that must all be present in the shipped corpus.
CORE_MESSAGE_GROUPS: dict[str, list[str]] = {
    "A": ["A1", "A2", "A3", "A4", "A5", "A6"],
    "B": ["B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9"],
    "C": ["C1", "C2", "C3", "C4", "C5"],
    "D": ["D1", "D2", "D3", "D4", "D5"],
    "E": ["E1", "E2", "E3"],
    "F": ["F1", "F2", "F3", "F4", "F5", "F6", "F7"],
    "G": ["G1", "G2", "G3", "G4", "G5"],
    "H": ["H1", "H2"],
}

# Patterns that must appear under these paradigm tags.
TAG_EXPECTATIONS: dict[str, frozenset[str]] = {
    "xai": frozenset(
        {
            "prediction-based_XAI",
            "prediction-with-XAI",
            "prediction_parameters",
            "policy-visualization",
        }
    ),
    "hitl": frozenset(
        {
            "sample-annotation",
            "informative_advice",
            "evaluative_advice",
            "parameter-modification",
        }
    ),
    "hi": frozenset(
        {"turn_taking-evaluation", "candidate_samples", "turn-taking_XAI"}
    ),
}

# Diff oracle for the two query-variant patterns: hand-derived alignment.
DIFF_SHARED: list[tuple[str, str]] = [
    ("user>model", "req-sample_class"),
    ("user>model", "modify-prediction"),
]
DIFF_ONLY_P1: list[tuple[str, str]] = [("model>user", "annotate-sample")]
DIFF_ONLY_P2: list[tuple[str, str]] = [("model>user", "req-modified_prediction")]

# Scenario composition oracle: name -> total message count.
SCENARIO_LENGTHS: dict[str, int] = {"D1": 6, "D2": 6, "D3": 6, "D4": 8}

# D1 runtime oracle: per-repetition message sequence and scripted payloads.
D1_MESSAGE_SEQUENCE: list[str] = ["A1", "A2", "A3", "A4", "A5", "A6"]
D1_SCRIPT_LABELS: list[str] = ["happy", "sad", "calm", "happy", "sad", "calm"]
D1_SCRIPT_POINTS: list[tuple[float, float]] = [
    (0.0, 0.0),
    (10.0, 10.0),
    (5.0, 5.0),
    (1.0, 1.0),
    (9.0, 9.0),
    (4.0, 4.0),
]

# D2 disagreement oracle: with happy=(0,0),(1,1) and sad=(10,10),(9,9) stored,
# the scripted point (9.5, 9.5) is nearest the "sad" centroid while the user
# reports "happy", forcing a "reject" evaluation.
D2_SEED_EXAMPLES: list[tuple[tuple[float, ...], str]] = [
    ((0.0, 0.0), "happy"),
    ((1.0, 1.0), "happy"),
    ((10.0, 10.0), "sad"),
    ((9.0, 9.0), "sad"),
]
D2_POINT: tuple[float, ...] = (9.5, 9.5)
D2_USER_LABEL = "happy"
D2_EXPECTED_PREDICTION = "sad"


# --------------------------------------------------------------------------
# Coherence expectations (hand-derived, frozen).
# --------------------------------------------------------------------------

# For every pattern: which message answers which request.  Deleting the
# answering message from the pattern must surface an unanswered-request
# diagnostic naming the request message.  Patterns absent from this table
# contain no answered request.
ANSWER_MAP: dict[str, list[tuple[str, str]]] = {
    "class-selection": [("A1", "A2")],
    "new_class_sample": [("A3", "A4")],
    "sample-annotation": [("A5", "A6")],
    "candidate_samples": [("B3", "B4")],
    "sample-modification": [("B8", "B9")],
    "informative_advice": [("C2", "C3")],
    "evaluative_advice": [("C4", "C5")],
    "prediction_parameters": [("D7", "D1")],
    "prediction-based_XAI": [("D4", "D5")],
    "turn_taking-evaluation": [("E1", "E2")],
    "outcome-evaluation": [("E4", "E3")],
    "recommendations": [("F1", "F2")],
    "feature-modification": [("F8", "F3")],
    "recommendation-XAI": [("F6", "F7")],
    "guided-prediction-with-XAI": [("G2", "G3")],
    "parameter-modification": [("G6", "G5")],
    "new_sample": [("Q1", "Q2")],
    "new_sample-annotation": [("Q1", "Q3")],
    "query-P1": [("Q4", "Q5")],
    "query-P2": [("Q4", "Q6"), ("Q6", "Q7")],
    "prediction-evaluation": [("PE1", "PE2")],
    "supervisor-oversight": [("MU2", "MU3")],
    "player-engagement": [("MU4", "MU5")],
    "subject-sample_annotation": [("CT1", "CT2")],
    "subject-prediction_XAI": [("CT3", "CT4")],
    "subject-prediction_evaluation": [("CT5", "CT6")],
    "subject-decision_request": [("CN1", "CN2")],
    "modification-request": [("CN4", "CN5")],
}

# Requests left open at the end of their pattern yet excused there: each is a
# counter-request that both answered an earlier request and introduced newly
# created material whose acceptance lies outside the pattern.  At scenario
# scope they must still be answered.
EXEMPT_OPEN: frozenset[tuple[str, str]] = frozenset(
    {
        ("new_sample-annotation", "Q3"),
        ("subject-decision_request", "CN2"),
    }
)

# Patterns made of provides only (no request anywhere), hand-listed.
PROVIDE_ONLY_EXPECTED: frozenset[str] = frozenset(
    {
        "decision-notice",
        "negotiation",
        "policy-visualization",
        "prediction-modification",
        "prediction-with-XAI",
        "turn-taking_XAI",
        "user-control-feedback",
        "user-feedback-control",
    }
)

# Agent roles the corpus declares (two are predeclared by the language).
ROLES_EXPECTED: frozenset[str] = frozenset(
    {"user", "model", "supervisor", "decision_subject", "human_controller"}
)


# --------------------------------------------------------------------------
# Character-loop lexer oracle.
# --------------------------------------------------------------------------

_ORACLE_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    ";": "SEMI",
    ".": "DOT",
    ":": "COLON",
    "|": "PIPE",
    "@": "AT",
    "=": "EQ",
}

_ORACLE_PAIRS = {":=": "ASSIGN", "->": "ARROW", "<-": "LARROW"}


class OracleLexError(Exception):
    """The oracle's lexing failure: message, 1-based line and col, length."""

    def __init__(self, message: str, line: int, col: int, length: int) -> None:
        super().__init__(message)
        self.message = message
        self.where = (line, col, length)


def oracle_tokenize(text: str) -> tuple[list[tuple], list[tuple]]:
    """The ``.hai`` lexer as a loop over characters, counting lines and columns.

    Tokens are ``(kind, value, line, col, length, offset)`` and end with an
    ``EOF`` token; comments are ``(line, col, length, text, offset)``.  Only
    ``\\n`` starts a line; space, tab and ``\\r`` are skipped.  Raises
    :class:`OracleLexError` on an unterminated string or any other character.
    """
    tokens: list[tuple[str, str, int, int, int, int]] = []
    comments: list[tuple[int, int, int, str, int]] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/" and text[i : i + 2] == "//":
            start = i
            while i < n and text[i] != "\n":
                i += 1
            comments.append((line, col, i - start, text[start + 2 : i].strip(), start))
            col += i - start
            continue
        pair = text[i : i + 2]
        if pair in _ORACLE_PAIRS:
            tokens.append((_ORACLE_PAIRS[pair], pair, line, col, 2, i))
            i += 2
            col += 2
            continue
        if ch in _ORACLE_PUNCT:
            tokens.append((_ORACLE_PUNCT[ch], ch, line, col, 1, i))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            out: list[str] = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise OracleLexError("unterminated string", line, col, j - i)
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    out.append(text[j + 1])
                    j += 2
                    continue
                out.append(text[j])
                j += 1
            if j >= n:
                raise OracleLexError("unterminated string", line, col, j - i)
            length = j + 1 - i
            tokens.append(("STRING", "".join(out), line, col, length, i))
            i = j + 1
            col += length
            continue
        if ch.isalpha():
            j = i + 1
            while j < n:
                if text[j].isalnum() or text[j] == "_":
                    j += 1
                elif text[j] == "-" and j + 1 < n and (
                    text[j + 1].isalnum() or text[j + 1] == "_"
                ):
                    j += 2
                else:
                    break
            tokens.append(("ID", text[i:j], line, col, j - i, i))
            col += j - i
            i = j
            continue
        raise OracleLexError(f"unexpected character {ch!r}", line, col, 1)
    tokens.append(("EOF", "", line, col, 0, n))
    return tokens, comments


# --------------------------------------------------------------------------
# The trace writer as one canonical JSON dump per line.
# --------------------------------------------------------------------------

_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def oracle_to_jsonl(trace) -> str:
    """``trace``, anything with a trace's attributes, as JSON lines: a dump of
    the header dict, of each step's dict (without ``detail`` when it is
    ``None``) and of the outcome dict, keys sorted, finite numbers only."""
    header = {"run": trace.run_id, "pattern": trace.pattern, "seed": trace.seed}
    lines = [_dump({"format": 2, **header})]
    for step in trace.steps:
        entry = {
            "step": step.step,
            "message": step.message,
            "sender": step.sender,
            "receiver": step.receiver,
            "action": step.action,
            "produced": step.produced,
            "digest": step.digest,
            "verdict": step.verdict,
        }
        if step.detail is not None:
            entry["detail"] = step.detail
        lines.append(_dump(entry))
    footer = {"run": trace.run_id, "steps": len(trace.steps), "outcome": trace.outcome}
    lines.append(_dump(footer))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Replay as a whole-trace comparison.
# --------------------------------------------------------------------------

_STEP_FIELDS = (
    "step", "message", "sender", "receiver", "action", "produced", "digest", "verdict", "detail",
)


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON number")


def _finite(text):
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(f"{text} is not a finite number")


_load = json.JSONDecoder(parse_float=_finite, parse_constant=_not_json).decode


def _misfit(entry: dict) -> str | None:
    unknown = sorted(entry.keys() - set(_STEP_FIELDS))
    if unknown:
        return f"{unknown[0]} is not a trace field"
    missing = [name for name in _STEP_FIELDS[:-1] if name not in entry]
    return f"{missing[0]} is missing" if missing else None


def _depth(value) -> int:
    """How many lists and objects deep ``value`` nests: 0 for a scalar."""
    depth, level = 0, [value]
    while level := [each for each in level if isinstance(each, (list, dict))]:
        depth += 1
        level = [v for each in level for v in (each.values() if isinstance(each, dict) else each)]
    return depth


def _read_runs(text: str):
    """Each run as ``(run_id, pattern, seed, steps, outcome)`` once its outcome
    line is read, the steps as dicts; ``ValueError`` naming the line.  A line
    that nests more than 64 deep does not read, at any stack depth."""
    lines: list[tuple[int, dict]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            entry = _load(line)
            deep = _depth(entry) > 64
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: {exc.msg} (column {exc.colno})") from None
        except RecursionError:  # deeper than this stack reads
            deep = True
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if deep:
            raise ValueError(f"line {lineno}: values nest more than 64 deep")
        if not isinstance(entry, dict):
            raise ValueError(f"line {lineno}: not a JSON object")
        if "outcome" not in entry:
            lines.append((lineno, entry))
            continue
        if not lines:
            raise ValueError(f"line {lineno}: an outcome line without a header")
        (first, header), body, lines = lines[0], lines[1:], []
        version = header.get("format", 1)
        if type(version) is not int or version != 2:
            raise ValueError(
                f"line {first}: the trace is format {_dump(version)}, this reader "
                f"reads format 2: regenerate it with `haiproto run`"
            )
        for number, (at, step) in enumerate(body, start=1):
            if _misfit(step) is not None:
                raise ValueError(f"line {at}: step {number}: {_misfit(step)}")
        unknown = sorted(header.keys() - {"format", "pattern", "run", "seed"})
        if unknown:
            raise ValueError(f"line {first}: {unknown[0]} is not a trace field")
        for key in ("run", "pattern", "seed"):
            if key not in header:
                raise ValueError(f"line {first}: {key} is missing")
        unknown = sorted(entry.keys() - {"outcome", "run", "steps"})
        if unknown:
            raise ValueError(f"line {lineno}: {unknown[0]} is not a trace field")
        run_id = header["run"]
        if _dump(entry) != _dump({**entry, "run": run_id, "steps": len(body)}):
            raise ValueError(f"line {lineno}: outcome line of run {run_id!r} contradicts it")
        steps = [{"detail": None, **step} for _, step in body]
        yield run_id, header["pattern"], header["seed"], steps, entry["outcome"]
    if lines:
        raise ValueError(f"line {lines[-1][0]}: trace ends without an outcome line")


class _Recording:
    """Serves each recorded step's payloads and raises its violation again:
    from ``produce`` if it produced nothing, else from ``on_receive``."""

    def __init__(self, steps, parse, hp):
        self.steps, self.parse, self.hp, self.index = steps, parse, hp, -1

    def produce(self, message, action, needed, binding):
        self.index += 1
        step = self.steps[self.index]
        if step["verdict"] != "ok" and not step["produced"]:
            raise self.hp.RunViolation(step["verdict"], step["detail"])
        return {
            var: self.hp.Payload(self.parse(data["type"]), self.hp._value_from_json(data["value"]))
            for var, data in step["produced"].items()
        }

    def on_receive(self, message, action, binding):
        step = self.steps[self.index]
        if step["verdict"] != "ok":
            raise self.hp.RunViolation(step["verdict"], step["detail"])


def _as_json(values: tuple) -> dict:
    data = dict(zip(_STEP_FIELDS, values))
    if data["detail"] is None:
        del data["detail"]
    return data


def oracle_replay_check(text: str, catalog) -> list:
    """Replay by reading each run whole, re-running it through ``haiproto.run``,
    comparing everything at once with ``marshal`` (which tells 1, 1.0 and True
    apart) and, only if that differs, naming the first differing field."""
    import functools

    from haiproto import runtime as hp
    from haiproto.core import Diagnostic
    from haiproto.dsl import parse_type

    parse = functools.lru_cache(maxsize=None)(parse_type)
    found = []
    try:
        for run_id, pattern, seed, steps, outcome in _read_runs(text):
            found.append(_replay_one(run_id, pattern, seed, steps, outcome, catalog, parse, hp))
    except ValueError as exc:
        found.append(Diagnostic("error", "E-TRACE", f"unreadable trace: {exc}"))
    return [diag for diag in found if diag is not None]


def _replay_one(run_id, name, seed, steps, outcome, catalog, parse, hp):
    from haiproto.check import reference_rule
    from haiproto.core import Diagnostic

    def found(code, text):
        return Diagnostic("error", code, f"run {run_id}: {text}")

    try:
        flow = catalog.flow(name)
    except (KeyError, TypeError, ValueError):
        return reference_rule(f"run {run_id}", "flow", name)
    if flow.report.errors:
        error = flow.report.errors[0]
        return found(error.code, f"flow {name!r} does not check: {error.message}")
    agents = dict.fromkeys(catalog.roles, _Recording(steps, parse, hp))
    rerun = hp.run(catalog, flow, agents, seed, run_id)
    replayed = [
        tuple(getattr(step, field) for field in _STEP_FIELDS) for step in rerun.steps
    ] + [rerun.outcome]
    recorded = [tuple(step[field] for field in _STEP_FIELDS) for step in steps] + [outcome]
    if marshal.dumps(replayed, 2) == marshal.dumps(recorded, 2):
        return None
    ours_all = [_as_json(values) for values in replayed[:-1]] + [{"outcome": rerun.outcome}]
    theirs_all = [_as_json(values) for values in recorded[:-1]] + [{"outcome": outcome}]
    for step in steps:
        if not isinstance(step["message"], str) or step["message"] not in catalog.messages:
            return reference_rule(f"run {run_id} step {step['step']}", "message", step["message"])
    for number, (ours, theirs) in enumerate(zip(ours_all, theirs_all), start=1):
        where = f"step {number}" if "step" in ours.keys() | theirs.keys() else "outcome"
        if ours.get("verdict") == "V-TYPE" and theirs.get("verdict") == "ok":
            return found("E-BINDING", f"{where}: {ours['detail']}, the trace says ok")
        for key in sorted(ours.keys() | theirs.keys()):
            was, now = _dump(theirs.get(key)), _dump(ours.get(key))
            if was != now:
                return found("E-TRACE", f"{where}: {key} is {was} in the trace, {now} on re-run")
    return None


# --------------------------------------------------------------------------
# The step loop, every check made on every step.
# --------------------------------------------------------------------------


def _written(value) -> str:
    """``_dump``, with the runtime's message for a number that is not finite."""
    try:
        return _dump(value)
    except ValueError as exc:
        if str(exc).startswith("Out of range float"):
            raise ValueError("a number is not finite: JSON has no NaN or Infinity") from None
        raise


def oracle_run(flow, agents) -> tuple[list[str], object]:
    """The step lines and outcome of a run of checked ``flow``, every check made
    on every step in the order of precedence: ``V-AGENT`` (the producer raised,
    or a key is no variable of the message, not the sender's to produce, or no
    ``Payload``), ``V-REBIND``, ``V-MISSING``, ``V-AGENT`` for a value the trace
    cannot write, then ``V-TYPE``: each slot's produced or bound value must
    intersect the needed or declared type.  Each producer gets a fresh
    read-only dict of the needed types; each line is one dump of its dict."""
    from types import MappingProxyType

    from haiproto import runtime as hp
    from haiproto.core import Payload, _value_json, intersect

    values, digest, lines, outcome = {}, 0, [], "completed"
    binding = MappingProxyType(values)
    for index, (step, pairs) in enumerate(zip(flow.steps, flow.needed), start=1):
        message, action, needed = step.message, step.action, dict(pairs)
        text, verdict, detail = "{}", "ok", None
        try:
            try:
                produced = dict(agents[message.sender].produce(
                    message, action, MappingProxyType(dict(needed)), binding))
            except hp.RunViolation:
                raise
            except Exception as exc:
                raise hp.RunViolation("V-AGENT", f"producer failed: {exc}") from exc
            order = sorted(produced, key=str)
            for var in order:
                if var not in message.args:
                    raise hp.RunViolation(
                        "V-AGENT", f"agent produced {var!r}, not a variable of {message.name!r}")
                if var not in needed and var not in values:
                    raise hp.RunViolation(
                        "V-AGENT", f"sender of {message.name!r} may not produce {var!r}")
                if not isinstance(produced[var], Payload):
                    raise hp.RunViolation(
                        "V-AGENT", f"agent produced {var!r} as a {type(produced[var]).__name__}")
            for var in order:
                if var in values and produced[var] != values[var]:
                    raise hp.RunViolation(
                        "V-REBIND", f"{var!r} is already bound to a different value")
            for var in needed:
                if var not in produced:
                    raise hp.RunViolation(
                        "V-MISSING", f"sender of {message.name!r} did not produce {var!r}")
            record = {
                var: {"type": str(produced[var].type), "value": _value_json(produced[var].value)}
                for var in needed
            }
            try:
                written = _written(record)
            except (TypeError, ValueError) as exc:
                raise hp.RunViolation("V-AGENT", f"the trace cannot write a value: {exc}") from exc
            for var, declared in step.slots:
                payload = produced[var] if var in needed else values.get(var)
                typ = needed.get(var, declared)
                if payload is not None and intersect(payload.type, typ) is None:
                    raise hp.RunViolation("V-TYPE", f"{var!r} expects {typ}, got {payload.type}")
            values.update((var, produced[var]) for var in needed)
            text = written
            try:
                agents[message.receiver].on_receive(message, action, binding)
            except hp.RunViolation:
                raise
            except Exception as exc:
                raise hp.RunViolation("V-AGENT", f"receiver failed: {exc}") from exc
        except hp.RunViolation as violation:
            verdict, detail = violation.code, violation.detail
        digest = zlib.crc32(text.encode(), digest)
        if detail is not None:
            digest = zlib.crc32(_written(detail).encode(), digest)
        entry = {
            "step": index, "message": message.name, "sender": message.sender,
            "receiver": message.receiver, "action": action.name, "produced": json.loads(text),
            "digest": f"{digest:08x}", "verdict": verdict,
        }
        if detail is not None:
            entry["detail"] = detail
        lines.append(_written(entry))
        if verdict != "ok":
            outcome = {"aborted": {"code": verdict, "step": index}}
            break
    return lines, outcome

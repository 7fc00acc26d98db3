"""haiproto — an executable toolkit for a human-AI interaction calculus.

The package models interactions as typed message exchanges: :mod:`.core`
defines the value types, :mod:`.dsl` parses and prints the ``.hai`` protocol
language, :mod:`.check` validates types and dialogue coherence,
:mod:`.catalog` loads and queries the bundled pattern corpus, :mod:`.agents`
are the parties of a run, :mod:`.runtime` simulates patterns with them, and
:mod:`.cli` exposes it all as the ``haiproto`` command.
"""

from __future__ import annotations

from .catalog import (
    Catalog,
    CatalogError,
    PatternDiff,
    check_catalog,
    compose,
    diff,
    export_json,
    fixtures_dir,
    load,
    load_with_diagnostics,
    query,
)
from .check import CheckReport, check_action, check_message, check_pattern
from .core import (
    TAGS,
    ActionDef,
    Arg,
    BaseType,
    Binding,
    GroupType,
    ListType,
    Message,
    Modifier,
    OpKind,
    Operation,
    Pattern,
    PrimitiveKind,
    PrimitiveSpec,
    Role,
    Blob,
    Payload,
    Vector,
    action_scope,
    intersect,
    type_compatible,
)
from .dsl import (
    Diagnostic,
    ParseResult,
    SourceFile,
    Span,
    parse,
    parse_type,
    print_action,
    print_message,
    print_pattern,
    print_source,
    print_type,
)
from .agents import AgentBehavior, ScriptedAgent, StubModelAgent, classify, parse_agents
from .runtime import Trace, TraceStep, replay_check, run, run_scenario

__version__ = "0.1.0"


__all__ = [
    "TAGS",
    "ActionDef",
    "AgentBehavior",
    "Arg",
    "BaseType",
    "Binding",
    "Blob",
    "Catalog",
    "CatalogError",
    "CheckReport",
    "Diagnostic",
    "GroupType",
    "ListType",
    "Message",
    "Modifier",
    "OpKind",
    "Operation",
    "ParseResult",
    "Pattern",
    "PatternDiff",
    "Payload",
    "PrimitiveKind",
    "PrimitiveSpec",
    "Role",
    "ScriptedAgent",
    "SourceFile",
    "Span",
    "StubModelAgent",
    "Trace",
    "TraceStep",
    "Vector",
    "action_scope",
    "check_action",
    "check_catalog",
    "check_message",
    "check_pattern",
    "classify",
    "compose",
    "diff",
    "export_json",
    "fixtures_dir",
    "intersect",
    "load",
    "load_with_diagnostics",
    "parse",
    "parse_agents",
    "parse_type",
    "print_action",
    "print_message",
    "print_pattern",
    "print_source",
    "print_type",
    "query",
    "replay_check",
    "run",
    "run_scenario",
    "type_compatible",
]

"""Hermetic C++ frontend: token/scope parser producing the analyzer IR.

Not a full C++ parser — a scope-tracking scanner that recognises the
constructs the invariant checks need: function definitions (with qualified
names from the namespace/class stack), call expressions, heap-allocation
sites, MutexLock RAII scopes, and fabric tag expressions. Lambdas are
attributed to their enclosing function (a lambda body runs on behalf of the
function that created it, which is exactly the attribution the whole-program
checks want). Fidelity is locked by tests/analyze_fixtures/.
"""

from .ir import AllocSite, CallSite, FunctionDef, LockAcq, ProgramIR, TagSite
from .lexer import match_backward, match_forward, tokenize

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "case", "default", "do", "else", "new", "delete", "throw", "goto",
    "static_assert", "decltype", "alignas", "co_await", "co_return",
    "co_yield", "noexcept", "and", "or", "not", "constexpr", "const",
    "static", "inline", "virtual", "explicit", "typename", "template",
    "using", "typedef", "public", "private", "protected", "friend",
}

# Identifiers that may sit (possibly with a parenthesised argument group)
# between a function's parameter list and its `{`.
_TRAILING_QUALIFIERS = {
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "try", "&", "&&",
}

# Thread-safety annotation macros from rna/common/thread_annotations.hpp
# appear in the same trailing position.
def _is_qualifier_macro(name):
    return name.startswith("RNA_") or name in _TRAILING_QUALIFIERS


# `emplace` is deliberately absent: without types, `optional::emplace`
# (no allocation) is indistinguishable from `map::emplace`, and the former
# dominates this codebase's hot paths.
_ALLOC_MEMBERS = {
    "resize", "reserve", "push_back", "emplace_back", "assign",
    "insert", "append",
}
_ALLOC_CONTAINERS = {
    "vector", "string", "deque", "map", "unordered_map", "set",
    "unordered_set", "list",
}
_ALLOC_SMART = {"make_unique", "make_shared"}
_ALLOC_C = {"malloc", "calloc", "realloc", "strdup"}

_RECV_TAG_ARG = {
    # callee name -> 0-based index of the tag argument
    "RecvFor": 1, "Recv": 1, "TryRecv": 1,
    "GetFor": 0, "Get": 0, "TryGet": 0,
}

# Call names whose edge into the call graph an `analyze:allow(timed-recv)`
# comment suppresses — the documented lossless fast paths that wait
# forever by design (Shutdown() wakes them).
_UNTIMED_RECV_NAMES = {"Recv", "RecvAny", "Get", "GetAny"}


class _Frame:
    __slots__ = ("kind", "name", "func", "locks")

    def __init__(self, kind, name="", func=None):
        self.kind = kind      # namespace | class | function | lambda | block
        self.name = name
        self.func = func      # FunctionDef for kind == "function"
        self.locks = []       # [_ActiveLock] opened in this scope


class _ActiveLock:
    __slots__ = ("var", "lock_id", "held")

    def __init__(self, var, lock_id):
        self.var = var
        self.lock_id = lock_id
        self.held = True


def _normalize_lock_expr(tokens):
    """Lock expression -> normalized text; array indexes collapse to []."""
    out, i = [], 0
    while i < len(tokens):
        t = tokens[i]
        if t.text == "[":
            out.append("[]")
            i = match_forward(tokens, i, "[", "]")
            continue
        if t.text in ("common", "rna") and i + 1 < len(tokens) \
                and tokens[i + 1].text == "::":
            i += 2
            continue
        if t.text == "this" or (t.text == "->" and out == []):
            i += 1
            continue
        out.append(t.text)
        i += 1
    return "".join(out)


class _Parser:
    def __init__(self, relpath, tokens, allow_lines):
        self.relpath = relpath
        self.tokens = tokens
        self.allow_lines = allow_lines
        self.stack = []
        self.functions = []

    # -- scope helpers ------------------------------------------------------

    def _namespace_prefix(self):
        parts = []
        for f in self.stack:
            if f.kind in ("namespace", "class") and f.name:
                parts.append(f.name)
        return parts

    def _enclosing_class(self):
        parts = []
        for f in self.stack:
            if f.kind in ("namespace", "class") and f.name:
                parts.append(f.name)
            if f.kind == "function":
                # Out-of-class method bodies: the class is in the def name.
                break
        cls = [f.name for f in self.stack if f.kind == "class" and f.name]
        return "::".join(parts) if cls else ""

    def _current_function(self):
        for f in reversed(self.stack):
            if f.kind == "function":
                return f.func
        return None

    def _held_lock_ids(self):
        held = []
        for f in self.stack:
            for lk in f.locks:
                if lk.held:
                    held.append(lk.lock_id)
        return tuple(held)

    def _find_active_lock(self, var):
        for f in reversed(self.stack):
            for lk in reversed(f.locks):
                if lk.var == var:
                    return lk
        return None

    # -- `{` classification -------------------------------------------------

    def _walk_name_chain(self, j):
        """Walks a qualified name ending at token j; returns (chain, start)."""
        chain = [self.tokens[j].text]
        k = j - 1
        if k >= 0 and self.tokens[k].text == "~":
            chain[0] = "~" + chain[0]
            k -= 1
        while k >= 1 and self.tokens[k].text == "::" \
                and self.tokens[k - 1].kind == "id":
            chain.insert(0, self.tokens[k - 1].text)
            k -= 2
            # Skip template arguments on the qualifier: A<T>::name.
            if k >= 0 and self.tokens[k].text == ">":
                while k >= 0 and self.tokens[k].text != "<":
                    k -= 1
                k -= 1
        return chain, k + 1

    def _classify_brace(self, i):
        """Returns (kind, name_chain) for the `{` at token index i."""
        toks = self.tokens
        j = i - 1
        if j < 0:
            return "block", None
        prev = toks[j]
        if prev.text in ("=", ",", "(", "[", "{", "return", ";", "}") or \
                prev.kind in ("num", "str"):
            return "block", None
        if prev.text in ("do", "else", "try"):
            return "block", None
        if prev.kind == "id":
            # namespace X { / class X ... { / enum ... { / expr-brace T{...}
            chain, start = self._walk_name_chain(j)
            k = start - 1
            if k >= 0 and toks[k].text == "namespace":
                return "namespace", chain
            kind = self._class_like(i)
            if kind:
                return kind
            # `Foo{...}` aggregate init or `union {` etc: treat as block.
            return "block", None
        if prev.text == "namespace":  # anonymous namespace
            return "namespace", [""]
        if prev.text != ")" and not (prev.kind == "id"):
            # `) const {` handled below; lone `>` (trailing return) etc.
            if prev.text not in (")",):
                pass
        # Walk back over trailing qualifiers / annotation-macro groups /
        # constructor init lists to find the parameter list.
        k = j
        while k >= 0:
            t = toks[k]
            if t.text == ")":
                open_i = match_backward(toks, k)
                before = open_i - 1
                if before < 0:
                    return "block", None
                bt = toks[before]
                if bt.kind == "id" and _is_qualifier_macro(bt.text):
                    k = before - 1  # RNA_REQUIRES(mu) etc.
                    continue
                if bt.text == ")" and before >= 1 and \
                        toks[match_backward(toks, before) - 1].text \
                        == "operator":
                    # operator()(params)
                    return "function", ["operator()"]
                if bt.kind == "id" or bt.text in (">", "]"):
                    return self._classify_paren_group(open_i)
                if bt.text == "operator" or (
                        bt.kind == "punct" and before >= 1
                        and toks[before - 1].text == "operator"):
                    return "function", ["operator" + (
                        "" if bt.text == "operator" else bt.text)]
                return "block", None
            if t.kind == "id" and _is_qualifier_macro(t.text):
                k -= 1
                continue
            if t.text in (">", "*", "&") or t.kind == "id" or t.text == "::":
                # trailing return type tokens: -> Type {  — skip back.
                k -= 1
                continue
            if t.text == "->":
                k -= 1
                continue
            return "block", None
        return "block", None

    def _classify_paren_group(self, open_i):
        """A `( ... )` group right before `{` whose preceding token is an
        identifier / `>` / `]`: function def, control statement, ctor init
        list entry, or lambda."""
        toks = self.tokens
        before = open_i - 1
        bt = toks[before]
        if bt.text == "]":
            return "lambda", None
        if bt.text == ">":
            # Template-id name: Foo<T>(...) — walk back over the <...>.
            k = before
            while k >= 0 and toks[k].text != "<":
                k -= 1
            before = k - 1
            bt = toks[before]
            if bt.kind != "id":
                return "block", None
        if bt.kind != "id":
            return "block", None
        if bt.text in ("if", "for", "while", "switch", "catch"):
            return "block", None
        if bt.text == "constexpr" and before >= 1 and \
                toks[before - 1].text == "if":
            return "block", None  # if constexpr (cond) {
        chain, start = self._walk_name_chain(before)
        # Constructor init list entry: `: member(init)` / `, member(init)`
        # — keep walking back to the real parameter list. A `:` right
        # after an access specifier (`public: int Get(...) {`) is class
        # punctuation, not an init list.
        def _is_init_sep(k):
            if k < 0 or toks[k].text not in (":", ","):
                return False
            if toks[k].text == ":" and k >= 1 and toks[k - 1].text in (
                    "public", "private", "protected"):
                return False
            return True

        k = start - 1
        while k >= 0 and toks[k].kind == "id" and \
                not _is_qualifier_macro(toks[k].text):
            k -= 1  # skip type names in `Type name(...)` declarations
        if _is_init_sep(k):
            back = self._rewind_ctor_init(k)
            if back is not None:
                return self._classify_paren_group(back)
            return "block", None
        if _is_init_sep(start - 1):
            back = self._rewind_ctor_init(start - 1)
            if back is not None:
                return self._classify_paren_group(back)
            return "block", None
        return "function", chain

    def _rewind_ctor_init(self, sep_i):
        """From a `:`/`,` before an init-list entry, finds the `(` of the
        constructor's parameter list (or None)."""
        toks = self.tokens
        k = sep_i
        while k >= 0:
            t = toks[k]
            if t.text == ":":
                # The ctor parameter list closes right before this `:`
                # (possibly with noexcept/macros between).
                k -= 1
                while k >= 0 and toks[k].kind == "id" and \
                        _is_qualifier_macro(toks[k].text):
                    k -= 1
                if k >= 0 and toks[k].text == ")":
                    return match_backward(toks, k)
                return None
            if t.text == ")":
                k = match_backward(toks, k) - 1
                continue
            if t.text == "}":
                k = match_backward(toks, k, "{", "}") - 1
                continue
            k -= 1
        return None

    def _class_like(self, brace_i):
        """Detects `class/struct/enum ... {` ending at brace_i."""
        toks = self.tokens
        k = brace_i - 1
        guard = 0
        while k >= 0 and guard < 64:
            t = toks[k]
            if t.text in (";", "}", "{"):
                return None
            if t.text == ")":
                k = match_backward(toks, k) - 1
                guard += 1
                continue
            if t.text == "enum":
                return ("block", None)  # enumerators hold no functions
            if t.text in ("class", "struct", "union"):
                # Name: first plain identifier after the keyword that is not
                # an attribute macro.
                m = k + 1
                while m < brace_i:
                    nt = toks[m]
                    if nt.kind == "id" and not _is_qualifier_macro(nt.text) \
                            and nt.text != "alignas":
                        return ("class", [nt.text])
                    if nt.text == "(":
                        m = match_forward(toks, m)
                        continue
                    if nt.text == ":":
                        break  # unnamed struct with bases — unlikely
                    m += 1
                return ("class", [""])
            k -= 1
            guard += 1
        return None

    # -- body scanning ------------------------------------------------------

    def _line_allows(self, line):
        return self.allow_lines.get(line, frozenset())

    def _record_alloc(self, fn, kind, detail, line):
        fn.allocs.append(AllocSite(kind=kind, detail=detail, line=line))

    def _expr_text(self, start, end):
        return " ".join(t.text for t in self.tokens[start:end]).strip()

    def _arg_ranges(self, open_i):
        """Splits the `( ... )` group at open_i into top-level argument
        token ranges [(start, end)...]."""
        toks = self.tokens
        end = match_forward(toks, open_i) - 1
        args, depth, start = [], 0, open_i + 1
        for k in range(open_i + 1, end):
            t = toks[k].text
            if t in "([{":
                depth += 1
            elif t in ")]}":
                depth -= 1
            elif t == "," and depth == 0:
                args.append((start, k))
                start = k + 1
        if end > start:
            args.append((start, end))
        return args

    def _scan_statement_token(self, i):
        """Inspects tokens[i] inside a function body; records IR facts."""
        toks = self.tokens
        fn = self._current_function()
        if fn is None:
            return
        t = toks[i]
        line = t.line
        if t.text == "new" and t.kind == "id":
            if "no-heap-reachable" not in self._line_allows(line):
                j = i + 1
                detail = " ".join(x.text for x in toks[j:j + 2])
                self._record_alloc(fn, "new", f"new {detail}".strip(), line)
            return
        if t.kind != "id" or t.text in _KEYWORDS:
            return
        nxt = toks[i + 1] if i + 1 < len(toks) else None

        # Member allocation calls: x.resize(...), v.push_back(...).
        if nxt is not None and nxt.text == "(" and i >= 1 \
                and toks[i - 1].text in (".", "->") \
                and t.text in _ALLOC_MEMBERS:
            if "no-heap-reachable" not in self._line_allows(line):
                self._record_alloc(fn, "container", f".{t.text}(", line)
            # fall through: it is also a call (unresolvable, external)

        # Smart-pointer factories and C allocators.
        if nxt is not None and (nxt.text == "(" or nxt.text == "<"):
            if t.text in _ALLOC_SMART:
                if "no-heap-reachable" not in self._line_allows(line):
                    self._record_alloc(fn, "smart", f"{t.text}<...>", line)
            elif t.text in _ALLOC_C and nxt.text == "(":
                if "no-heap-reachable" not in self._line_allows(line):
                    self._record_alloc(fn, "malloc", f"{t.text}(", line)

        # Sized container declarations: std::vector<float> name(...) — but
        # not copy-init (`= expr`) nor empty declarations.
        if t.text in _ALLOC_CONTAINERS and nxt is not None \
                and nxt.text == "<":
            close = self._skip_template_args(i + 1)
            if close is not None:
                m = close
                if m < len(toks) and toks[m].kind == "id":
                    after = toks[m + 1] if m + 1 < len(toks) else None
                    if after is not None and after.text == "(":
                        args = self._arg_ranges(m + 1)
                        if args and "no-heap-reachable" not in \
                                self._line_allows(toks[m].line):
                            self._record_alloc(
                                fn, "container",
                                f"std::{t.text}<...> {toks[m].text}(...)",
                                toks[m].line)

        # MutexLock RAII declarations: [common::]MutexLock name(expr);
        if t.text == "MutexLock" and nxt is not None and nxt.kind == "id":
            after = toks[i + 2] if i + 2 < len(toks) else None
            if after is not None and after.text == "(":
                args = self._arg_ranges(i + 2)
                if args:
                    expr_toks = toks[args[0][0]:args[0][1]]
                    lock_id = self._lock_identity(fn, expr_toks)
                    held = self._held_lock_ids()
                    if "lock-order" not in self._line_allows(line):
                        fn.locks.append(LockAcq(
                            lock_id=lock_id,
                            expr=self._expr_text(*args[0]),
                            line=line, held_locks=held))
                    self.stack[-1].locks.append(
                        _ActiveLock(nxt.text, lock_id))
            return

    def _skip_template_args(self, lt_i):
        """From `<` at lt_i, index just past the matching `>`; None if this
        is a comparison rather than template args."""
        toks = self.tokens
        depth, k = 0, lt_i
        while k < len(toks) and k < lt_i + 64:
            t = toks[k].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return k + 1
            elif t in (";", "{", ")", "&&", "||"):
                return None
            k += 1
        return None

    def _lock_identity(self, fn, expr_toks):
        norm = _normalize_lock_expr(expr_toks)
        # Member mutexes unify across all methods of the class; locals (and
        # captured locals in lambdas) unify within the defining function.
        if fn.cls and norm.endswith(("_", "_[]")):
            return f"{fn.cls}::{norm}"
        return f"{fn.qname}::{norm}"

    def _scan_call(self, i):
        """tokens[i] is an identifier followed by `(`: record a call."""
        toks = self.tokens
        fn = self._current_function()
        if fn is None:
            return
        t = toks[i]
        if t.text in _KEYWORDS or t.text.isupper():
            return  # control flow / macro invocation (args still scanned)
        if t.text.startswith("RNA_") or t.text.startswith("EXPECT_") \
                or t.text.startswith("ASSERT_"):
            return
        chain, start = self._walk_name_chain(i)
        is_member = start >= 1 and toks[start - 1].text in (".", "->")
        receiver = ""
        if is_member and start >= 2:
            r = toks[start - 2]
            receiver = r.text if r.kind == "id" else "(expr)"
        held = self._held_lock_ids()
        suppressed_recv = (
            chain[-1] in _UNTIMED_RECV_NAMES
            and "timed-recv" in self._line_allows(t.line))
        if not suppressed_recv:
            fn.calls.append(CallSite(
                name=chain[-1], chain=tuple(chain), is_member=is_member,
                receiver=receiver, line=t.line, held_locks=held))

        # Hand-over-hand MutexLock var usage: lk.Unlock() / lk.Lock().
        if is_member and chain[-1] in ("Unlock", "Lock") and receiver:
            active = self._find_active_lock(receiver)
            if active is not None:
                active.held = chain[-1] == "Lock"
                if active.held:
                    # Re-acquisition site: record ordering against currently
                    # held locks (excluding itself).
                    held2 = tuple(h for h in self._held_lock_ids()
                                  if h != active.lock_id)
                    fn.locks.append(LockAcq(
                        lock_id=active.lock_id, expr=receiver,
                        line=t.line, held_locks=held2))

        # Tag expressions on receives: fabric.RecvFor(rank, TAG, ...).
        if chain[-1] in _RECV_TAG_ARG and is_member:
            args = self._arg_ranges(i + 1)
            idx = _RECV_TAG_ARG[chain[-1]]
            if len(args) > idx and "tag-discipline" not in \
                    self._line_allows(t.line):
                fn.tags.append(TagSite(
                    role="recv", expr=self._expr_text(*args[idx]),
                    line=t.line))

    def _scan_tag_assign(self, i):
        """`.tag = EXPR ;` → send-side TagSite."""
        toks = self.tokens
        fn = self._current_function()
        if fn is None:
            return
        if toks[i].text != "tag" or i < 1 or toks[i - 1].text != ".":
            return
        if i + 1 >= len(toks) or toks[i + 1].text != "=":
            return
        j = i + 2
        depth = 0
        while j < len(toks):
            tt = toks[j].text
            if tt in "([{":
                depth += 1
            elif tt in ")]}":
                depth -= 1
            elif tt == ";" and depth == 0:
                break
            j += 1
        if "tag-discipline" not in self._line_allows(toks[i].line):
            fn.tags.append(TagSite(
                role="send", expr=self._expr_text(i + 2, j),
                line=toks[i].line))

    # -- main loop ----------------------------------------------------------

    def parse(self):
        toks = self.tokens
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.text == "{":
                kind, chain = self._classify_brace(i)
                if kind == "namespace":
                    # `namespace rna::collectives {` — keep the full path
                    # in one frame (one `{` pops one frame).
                    self.stack.append(_Frame(
                        "namespace", "::".join(c for c in chain if c)))
                elif kind == "class":
                    self.stack.append(_Frame("class", chain[-1]))
                elif kind == "function":
                    prefix = self._namespace_prefix()
                    qname = "::".join(prefix + chain)
                    cls = "::".join(prefix + chain[:-1]) if len(chain) > 1 \
                        else self._enclosing_class()
                    fn = FunctionDef(
                        qname=qname, name=chain[-1], cls=cls,
                        file=self.relpath, line=t.line)
                    self.functions.append(fn)
                    self.stack.append(_Frame("function", chain[-1], fn))
                elif kind == "lambda":
                    self.stack.append(_Frame("lambda"))
                else:
                    self.stack.append(_Frame("block"))
                i += 1
                continue
            if t.text == "}":
                if self.stack:
                    self.stack.pop()
                i += 1
                continue
            if t.kind == "id":
                nxt = toks[i + 1] if i + 1 < len(toks) else None
                self._scan_statement_token(i)
                self._scan_tag_assign(i)
                if nxt is not None and nxt.text == "(":
                    self._scan_call(i)
            i += 1
        return self.functions


def _allow_lines(text):
    """line number -> set of check names suppressed by analyze:allow(...)"""
    allows = {}
    for n, raw in enumerate(text.split("\n"), start=1):
        at = raw.find("analyze:allow(")
        if at < 0:
            continue
        inner = raw[at + len("analyze:allow("):]
        close = inner.find(")")
        if close < 0:
            continue
        names = frozenset(s.strip() for s in inner[:close].split(","))
        allows[n] = names
    return allows


def parse_file(relpath, text, program):
    allow = _allow_lines(text)
    tokens = tokenize(text)
    parser = _Parser(relpath, tokens, allow)
    for fn in parser.parse():
        program.add(fn)
    program.files.append(relpath)


def build_ir(sources):
    """sources: [(repo-relative path, text)] -> ProgramIR."""
    program = ProgramIR(frontend="textual")
    for relpath, text in sources:
        parse_file(relpath, text, program)
    return program

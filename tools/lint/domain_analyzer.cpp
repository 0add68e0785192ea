#include "lint/domain_analyzer.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "lint/source_view.hpp"

namespace sqos::lint {
namespace {

constexpr std::string_view kUnannotated = "domain-unannotated";
constexpr std::string_view kCrossWrite = "domain-cross-write";
constexpr std::string_view kCapture = "domain-capture";
constexpr std::string_view kBadSuppression = "bad-suppression";
constexpr std::string_view kUnusedSuppression = "unused-suppression";

/// Umbrella + specific rule match for domain-family suppressions.
bool domain_family(std::string_view rule) {
  return rule == "domain" || starts_with(rule, "domain-");
}

// ----------------------------------------------------------- file model --

}  // namespace

/// Per-file scan state: the shared blanked source view plus the joined code
/// (declarations and call spans cross line boundaries constantly).
struct DomainFile : SourceView {
  std::string joined;                // code view joined with '\n'
  std::vector<std::size_t> line_of;  // joined offset -> 0-based line index
};

namespace {

void build_joined(DomainFile& f) {
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    for (const char c : f.code[ln]) {
      f.joined += c;
      f.line_of.push_back(ln);
    }
    f.joined += '\n';
    f.line_of.push_back(ln);
  }
}

/// Matching close bracket for the open bracket at `pos` ('(' / '[' / '{').
/// The code view has comments and strings blanked, so raw bracket counting
/// is sound. Returns npos when unbalanced.
std::size_t match_bracket(std::string_view text, std::size_t pos) {
  const char open = text[pos];
  const char close = open == '(' ? ')' : open == '[' ? ']' : '}';
  int depth = 0;
  for (std::size_t i = pos; i < text.size(); ++i) {
    if (text[i] == open) ++depth;
    else if (text[i] == close && --depth == 0) return i;
  }
  return std::string_view::npos;
}

std::size_t skip_ws(std::string_view text, std::size_t i) {
  while (i < text.size() && is_space(text[i])) ++i;
  return i;
}

std::string_view word_at(std::string_view text, std::size_t i) {
  std::size_t e = i;
  while (e < text.size() && is_word(text[e])) ++e;
  return text.substr(i, e - i);
}

/// Identifier ending immediately before `i` (whitespace between it and `i`
/// is skipped). Empty when none.
std::string_view word_before(std::string_view text, std::size_t i) {
  while (i > 0 && is_space(text[i - 1])) --i;
  std::size_t b = i;
  while (b > 0 && is_word(text[b - 1])) --b;
  return text.substr(b, i - b);
}

/// True when every brace enclosing `offsets` position is a namespace brace —
/// i.e. the position is at namespace scope (not inside a class, function or
/// initializer). Precomputed in one walk per file.
std::vector<bool> namespace_scope_mask(std::string_view joined) {
  std::vector<bool> mask(joined.size(), true);
  std::vector<bool> ns_stack;  // one entry per open brace: is it a namespace?
  std::size_t segment = 0;     // start of the current declaration fragment
  bool all_ns = true;
  for (std::size_t i = 0; i < joined.size(); ++i) {
    mask[i] = all_ns;
    const char c = joined[i];
    if (c == '{') {
      const std::string_view seg = joined.substr(segment, i - segment);
      ns_stack.push_back(find_word(seg, "namespace") != std::string_view::npos);
      if (!ns_stack.back()) all_ns = false;
      segment = i + 1;
    } else if (c == '}') {
      if (!ns_stack.empty()) ns_stack.pop_back();
      all_ns = true;
      for (const bool ns : ns_stack) all_ns = all_ns && ns;
      segment = i + 1;
    } else if (c == ';') {
      segment = i + 1;
    }
  }
  return mask;
}

// -------------------------------------------------------- symbol tables --

struct ClassInfo {
  std::string name;
  std::string domain;  // "rm" | "client" | "global" | "owner" | "" (none)
  std::string file;
  int line = 0;            // 1-based line of the class-key keyword
  bool top_level = false;  // defined at namespace scope
  bool has_state = false;  // any `_`-suffixed member at class-body depth 1
  std::set<std::string, std::less<>> const_methods;  // any const overload
};

struct Context {
  std::size_t begin = 0;  // body span in `joined`, [begin, end)
  std::size_t end = 0;
  std::string domain;
  enum Kind { kNormal, kSetup, kExchange } kind = kNormal;
};

struct Binding {
  std::string class_name;
  bool is_const = false;
  // The class token appeared inside template arguments (`vector<C*> v`), so
  // `v` is a container/smart-pointer OF the class: `.method()` calls operate
  // on the container (this context's own state), not on the domain class.
  bool via_template = false;
  std::size_t decl = 0;  // offset of the declaration in `joined`
  bool local = true;     // declared in this file (false: merged from header)
};

struct Tables {
  std::map<std::string, ClassInfo, std::less<>> classes;
  std::set<std::string, std::less<>> exchange_qualified;  // "Class::fn" / "fn"
  std::set<std::string, std::less<>> exchange_bare;
  std::set<std::string, std::less<>> setup_qualified;
  std::set<std::string, std::less<>> setup_bare;
};

struct FileScan {
  std::vector<Context> contexts;  // sorted by begin; innermost match wins
  std::map<std::string, Binding, std::less<>> bindings;
  std::vector<std::pair<std::size_t, std::size_t>> exchange_spans;  // call args
  std::vector<std::pair<std::size_t, std::size_t>> schedule_spans;  // call args
  // Class body spans found in this file (headers): name + [begin, end).
  std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>> class_bodies;
};

bool in_domain_scoped_dirs(std::string_view path) {
  return starts_with(path, "src/dfs/") || starts_with(path, "src/core/") ||
         starts_with(path, "src/qos/") || starts_with(path, "src/sim/") ||
         starts_with(path, "src/check/");
}

bool is_header(std::string_view path) {
  return ends_with(path, ".hpp") || ends_with(path, ".h") || ends_with(path, ".hh");
}

bool preprocessor_line(const DomainFile& f, std::size_t offset) {
  const std::string_view line = f.code[f.line_of[offset]];
  return starts_with(trim(line), "#");
}

// ------------------------------------------------- pass 1: class tables --

/// Scan one class body for `_`-suffixed members and const methods. `body` is
/// the span between the class braces (exclusive). Depth-1 paren groups are
/// parameter lists (or inline bodies' heads); they are matched and skipped so
/// parameter names never read as members.
void scan_class_body(const DomainFile& f, std::size_t begin, std::size_t end, ClassInfo& info) {
  const std::string_view joined = f.joined;
  int depth = 1;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = joined[i];
    if (c == '{') { ++depth; continue; }
    if (c == '}') { --depth; continue; }
    if (depth != 1) continue;
    if (c == '(') {
      const std::size_t close = match_bracket(joined, i);
      if (close == std::string_view::npos || close >= end) return;
      const std::string_view name = word_before(joined, i);
      const std::size_t after = skip_ws(joined, close + 1);
      if (!name.empty() && word_at(joined, after) == "const") {
        info.const_methods.insert(std::string{name});
      }
      i = close;
      continue;
    }
    if (is_word(c) && (i == begin || !is_word(joined[i - 1]))) {
      const std::string_view w = word_at(joined, i);
      if (ends_with(w, "_") && w.size() > 1) {
        const std::size_t after = skip_ws(joined, i + w.size());
        if (after < end && (joined[after] == ';' || joined[after] == '=' ||
                            joined[after] == '{' || joined[after] == '[')) {
          info.has_state = true;
        }
      }
      i += w.size() - 1;
    }
  }
}

/// Find every class/struct definition in the file; record name, SQOS_DOMAIN
/// annotation, body span, members and const methods.
void collect_classes(const DomainFile& f, const std::vector<bool>& ns_mask, Tables& tables,
                     FileScan& scan) {
  const std::string_view joined = f.joined;
  for (const std::string_view kw : {std::string_view{"class"}, std::string_view{"struct"}}) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(joined, kw, from);
      if (pos == std::string_view::npos) break;
      from = pos + kw.size();
      if (word_before(joined, pos) == "enum") continue;
      std::size_t i = skip_ws(joined, pos + kw.size());
      std::string domain;
      std::string name;
      while (i < joined.size()) {
        if (joined.compare(i, 2, "[[") == 0) {  // attribute: skip
          const std::size_t close = joined.find("]]", i);
          if (close == std::string::npos) break;
          i = skip_ws(joined, close + 2);
          continue;
        }
        const std::string_view w = word_at(joined, i);
        if (w.empty()) break;
        if (w == "SQOS_DOMAIN") {
          std::size_t j = skip_ws(joined, i + w.size());
          if (j < joined.size() && joined[j] == '(') {
            const std::size_t close = match_bracket(joined, j);
            if (close == std::string_view::npos) break;
            domain = std::string{trim(joined.substr(j + 1, close - j - 1))};
            i = skip_ws(joined, close + 1);
            continue;
          }
          break;
        }
        if (w == "alignas") {  // alignas(...): skip the argument
          std::size_t j = skip_ws(joined, i + w.size());
          if (j >= joined.size() || joined[j] != '(') break;
          const std::size_t close = match_bracket(joined, j);
          if (close == std::string_view::npos) break;
          i = skip_ws(joined, close + 1);
          continue;
        }
        name = std::string{w};
        i = skip_ws(joined, i + w.size());
        break;
      }
      if (name.empty()) continue;
      if (word_at(joined, i) == "final") i = skip_ws(joined, i + 5);
      if (i >= joined.size()) continue;
      std::size_t body_open = std::string_view::npos;
      if (joined[i] == '{') {
        body_open = i;
      } else if (joined[i] == ':' && (i + 1 >= joined.size() || joined[i + 1] != ':')) {
        // Base clause: the body opens at the first top-level '{'.
        int depth = 0;
        for (std::size_t j = i + 1; j < joined.size(); ++j) {
          const char c = joined[j];
          if (c == '<' || c == '(') ++depth;
          else if (c == '>' || c == ')') --depth;
          else if (c == '{' && depth == 0) { body_open = j; break; }
          else if (c == ';' && depth == 0) break;  // malformed / fwd decl
        }
      }
      if (body_open == std::string_view::npos) continue;  // forward declaration
      const std::size_t body_close = match_bracket(joined, body_open);
      if (body_close == std::string_view::npos) continue;

      ClassInfo info;
      info.name = name;
      info.domain = domain;
      info.file = f.path;
      info.line = static_cast<int>(f.line_of[pos] + 1);
      info.top_level = ns_mask[pos];
      scan_class_body(f, body_open + 1, body_close, info);
      scan.class_bodies.emplace_back(name, std::make_pair(body_open + 1, body_close));

      auto [it, inserted] = tables.classes.emplace(name, std::move(info));
      if (!inserted && it->second.domain.empty() && !domain.empty()) {
        // A later definition carries the annotation (e.g. fixture overlays):
        // merge rather than drop it.
        it->second.domain = domain;
      }
    }
  }
}

/// Collect SQOS_EXCHANGE / SQOS_SETUP function declarations. The token marks
/// the next function declaration; its name is the identifier before the
/// first '(' that follows. Declarations inside a class body are qualified
/// with the class name.
void collect_marked_functions(const DomainFile& f, const FileScan& scan, Tables& tables) {
  const std::string_view joined = f.joined;
  struct Mark {
    std::string_view token;
    std::set<std::string, std::less<>>* qualified;
    std::set<std::string, std::less<>>* bare;
  };
  const Mark marks[] = {
      {"SQOS_EXCHANGE", &tables.exchange_qualified, &tables.exchange_bare},
      {"SQOS_SETUP", &tables.setup_qualified, &tables.setup_bare},
  };
  for (const Mark& mark : marks) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(joined, mark.token, from);
      if (pos == std::string_view::npos) break;
      from = pos + mark.token.size();
      if (preprocessor_line(f, pos)) continue;  // the macro definition itself
      // Find the declaration's '(' — stop at ';' or '{' (malformed mark).
      std::size_t paren = std::string_view::npos;
      for (std::size_t i = pos + mark.token.size(); i < joined.size(); ++i) {
        const char c = joined[i];
        if (c == '(') { paren = i; break; }
        if (c == ';' || c == '{' || c == '}') break;
      }
      if (paren == std::string_view::npos) continue;
      const std::string_view name = word_before(joined, paren);
      if (name.empty()) continue;
      std::string owner;
      for (const auto& [cls, span] : scan.class_bodies) {
        if (pos >= span.first && pos < span.second) { owner = cls; break; }
      }
      if (!owner.empty()) mark.qualified->insert(owner + "::" + std::string{name});
      mark.qualified->insert(std::string{name});
      mark.bare->insert(std::string{name});
    }
  }
}

// ----------------------------------------------------- pass 2: bindings --

/// Record `name -> class` for every declaration whose type mentions a
/// shard-domain class (rm/client/global): members, locals, parameters —
/// including through smart pointers and containers (`vector<unique_ptr<RM>>
/// rms_`). Const-qualified bindings are exempt from the write rule (the
/// compiler already rejects writes through them).
void collect_bindings(const DomainFile& f, const Tables& tables, FileScan& scan) {
  const std::string_view joined = f.joined;
  for (const auto& [cls, info] : tables.classes) {
    if (info.domain != "rm" && info.domain != "client" && info.domain != "global") continue;
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(joined, cls, from);
      if (pos == std::string_view::npos) break;
      from = pos + cls.size();
      std::size_t i = pos + cls.size();
      if (joined.compare(i, 2, "::") == 0) continue;  // qualified use, not a decl
      // const-ness: `const C&` (possibly behind `std::unique_ptr<const C>`).
      const bool is_const = word_before(joined, pos) == "const";
      // Skip the type soup between the class token and the declared name:
      // closing template brackets, ref/pointer declarators, cv. A closing
      // `>` means the class token sat inside template arguments, i.e. the
      // declared variable is a container/smart-pointer of the class.
      bool via_template = false;
      while (i < joined.size()) {
        i = skip_ws(joined, i);
        if (i < joined.size() && (joined[i] == '>' || joined[i] == '&' || joined[i] == '*')) {
          if (joined[i] == '>') via_template = true;
          ++i;
          continue;
        }
        if (word_at(joined, i) == "const") { i += 5; continue; }
        break;
      }
      const std::string_view name = word_at(joined, i);
      if (name.empty() || name == "operator") continue;
      const std::size_t after = skip_ws(joined, i + name.size());
      if (after >= joined.size()) continue;
      const char c = joined[after];
      // `C& f(...)` is a function/accessor declaration, not a binding.
      if (c == ';' || c == '=' || c == ',' || c == ')' || c == '{' || c == '[') {
        scan.bindings.emplace(std::string{name}, Binding{cls, is_const, via_template, pos, true});
      }
    }
  }
}

// ----------------------------------------------------- pass 3: contexts --

void push_sorted_context(FileScan& scan, Context ctx) { scan.contexts.push_back(ctx); }

Context::Kind method_kind(const Tables& tables, const std::string& cls,
                          std::string_view method) {
  const std::string qualified = cls + "::" + std::string{method};
  if (tables.exchange_qualified.count(qualified) != 0 ||
      tables.exchange_bare.count(method) != 0) {
    return Context::kExchange;
  }
  if (tables.setup_qualified.count(qualified) != 0 || tables.setup_bare.count(method) != 0) {
    return Context::kSetup;
  }
  return Context::kNormal;
}

/// Out-of-line method definitions: `Ret Class::method(...) [const] ... {`.
/// Each becomes a context span of the class's domain; constructors and
/// destructors (and SQOS_SETUP / SQOS_EXCHANGE functions) get their kind.
void collect_cpp_contexts(const DomainFile& f, const std::vector<bool>& ns_mask,
                          const Tables& tables, FileScan& scan) {
  const std::string_view joined = f.joined;
  std::size_t from = 0;
  while (true) {
    const std::size_t pos = joined.find("::", from);
    if (pos == std::string::npos) break;
    from = pos + 2;
    if (!ns_mask[pos]) continue;  // inside some body already
    const std::string_view cls = word_before(joined, pos);
    if (cls.empty()) continue;
    const auto it = tables.classes.find(cls);
    if (it == tables.classes.end() || it->second.domain.empty()) continue;
    std::size_t i = skip_ws(joined, pos + 2);
    bool dtor = false;
    if (i < joined.size() && joined[i] == '~') {
      dtor = true;
      i = skip_ws(joined, i + 1);
    }
    const std::string_view method = word_at(joined, i);
    if (method.empty()) continue;
    std::size_t paren = skip_ws(joined, i + method.size());
    if (paren >= joined.size() || joined[paren] != '(') continue;
    const std::size_t close = match_bracket(joined, paren);
    if (close == std::string_view::npos) continue;
    // Walk past qualifiers / ctor-init list to the body '{' (or ';' = decl).
    std::size_t j = close + 1;
    std::size_t body_open = std::string_view::npos;
    int depth = 0;
    for (; j < joined.size(); ++j) {
      const char c = joined[j];
      if (c == '(' || c == '<') ++depth;
      else if (c == ')' || c == '>') --depth;
      else if (c == '{' && depth == 0) { body_open = j; break; }
      else if (c == ';' && depth == 0) break;
    }
    if (body_open == std::string_view::npos) continue;
    const std::size_t body_close = match_bracket(joined, body_open);
    if (body_close == std::string_view::npos) continue;

    Context ctx;
    ctx.begin = body_open;  // include the ctor-init list? no: writes there are
    ctx.end = body_close;   // declarations — member inits are same-domain anyway
    ctx.domain = it->second.domain;
    if (it->second.domain == "owner") continue;  // transparent components
    const bool ctor = dtor || method == cls;
    ctx.kind = ctor ? Context::kSetup : method_kind(tables, std::string{cls}, method);
    push_sorted_context(scan, ctx);
  }
}

/// Header contexts: each annotated class body is one span of its domain;
/// inline constructors/destructors and SQOS_SETUP/SQOS_EXCHANGE methods
/// defined in-class become nested sub-spans with their own kind.
void collect_header_contexts(const DomainFile& f, const Tables& tables, FileScan& scan) {
  const std::string_view joined = f.joined;
  for (const auto& [cls, span] : scan.class_bodies) {
    const auto it = tables.classes.find(cls);
    if (it == tables.classes.end()) continue;
    const std::string& domain = it->second.domain;
    if (domain.empty() || domain == "owner") continue;
    Context outer;
    outer.begin = span.first;
    outer.end = span.second;
    outer.domain = domain;
    outer.kind = Context::kNormal;
    push_sorted_context(scan, outer);

    // Depth-1 paren groups: find inline method bodies with a special kind.
    int depth = 1;
    for (std::size_t i = span.first; i < span.second; ++i) {
      const char c = joined[i];
      if (c == '{') { ++depth; continue; }
      if (c == '}') { --depth; continue; }
      if (depth != 1 || c != '(') continue;
      const std::size_t close = match_bracket(joined, i);
      if (close == std::string_view::npos || close >= span.second) break;
      std::string_view name = word_before(joined, i);
      bool ctor = name == cls;
      if (!ctor && !name.empty()) {
        // `~Cluster()`: the identifier is preceded by '~'.
        std::size_t b = i;
        while (b > 0 && is_space(joined[b - 1])) --b;
        b -= name.size();
        if (b > 0 && joined[b - 1] == '~') ctor = true;
      }
      Context::Kind kind =
          name.empty() ? Context::kNormal
                       : (ctor ? Context::kSetup : method_kind(tables, cls, name));
      // Find the inline body '{' after qualifiers; ';' means declaration only.
      std::size_t body_open = std::string_view::npos;
      int d = 0;
      for (std::size_t j = close + 1; j < span.second; ++j) {
        const char ch = joined[j];
        if (ch == '(' || ch == '<') ++d;
        else if (ch == ')' || ch == '>') --d;
        else if (ch == '{' && d == 0) { body_open = j; break; }
        else if (ch == ';' && d == 0) break;
      }
      if (body_open == std::string_view::npos) { i = close; continue; }
      const std::size_t body_close = match_bracket(joined, body_open);
      if (body_close == std::string_view::npos || body_close > span.second) {
        i = close;
        continue;
      }
      if (kind != Context::kNormal) {
        Context sub;
        sub.begin = body_open;
        sub.end = body_close;
        sub.domain = domain;
        sub.kind = kind;
        push_sorted_context(scan, sub);
      }
      i = body_close;  // skip the body: its parens are not member decls
    }
  }
}

/// Argument spans of calls to exchange functions (`net_.send(...)`: the
/// delivery closure runs at the receiver — a cross-shard message, the
/// sanctioned channel) and of the scheduler calls
/// (rule domain-capture looks inside these).
void collect_call_spans(const DomainFile& f, const Tables& tables, FileScan& scan) {
  const std::string_view joined = f.joined;
  auto collect = [&](std::string_view name,
                     std::vector<std::pair<std::size_t, std::size_t>>& out) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_call(joined, name, from);
      if (pos == std::string_view::npos) break;
      from = pos + name.size();
      const std::size_t paren = joined.find('(', pos + name.size());
      if (paren == std::string::npos) break;
      const std::size_t close = match_bracket(joined, paren);
      if (close == std::string_view::npos) continue;
      out.emplace_back(paren, close);
    }
  };
  for (const std::string& name : tables.exchange_bare) collect(name, scan.exchange_spans);
  collect("schedule_at", scan.schedule_spans);
  collect("schedule_after", scan.schedule_spans);
  collect("schedule_series", scan.schedule_spans);
}

// ------------------------------------------------------- pass 4: checks --

const Context* innermost_context(const FileScan& scan, std::size_t pos) {
  const Context* best = nullptr;
  for (const Context& ctx : scan.contexts) {
    if (pos < ctx.begin || pos >= ctx.end) continue;
    if (best == nullptr || ctx.begin > best->begin) best = &ctx;
  }
  return best;
}

bool within_spans(const std::vector<std::pair<std::size_t, std::size_t>>& spans,
                  std::size_t pos) {
  for (const auto& [b, e] : spans) {
    if (pos > b && pos < e) return true;
  }
  return false;
}

/// Standard container / smart-pointer interface methods. Calls to these on a
/// `via_template` binding (`vector<RM*> rms_`) mutate or read the *container*
/// — state of the enclosing class, owned by the current context — rather than
/// the pointed-to domain objects, so they are not cross-domain accesses.
bool container_method(std::string_view m) {
  static const std::set<std::string_view> kMethods = {
      "begin", "end",     "cbegin", "cend",  "rbegin",  "rend",    "find",
      "count", "contains", "at",    "emplace", "emplace_back", "insert",
      "erase", "clear",   "size",   "empty", "reserve", "resize",  "push_back",
      "pop_back", "front", "back",  "get",   "reset",   "swap",    "data"};
  return kMethods.count(m) != 0;
}

/// True when the text at `i` (first char after a member token) begins a
/// mutation: assignment (but not comparison) or ++/--.
bool write_op_at(std::string_view text, std::size_t i) {
  i = skip_ws(text, i);
  if (i >= text.size()) return false;
  const char c = text[i];
  if (c == '=') return i + 1 >= text.size() || text[i + 1] != '=';
  if ((c == '+' || c == '-') && i + 1 < text.size() && text[i + 1] == c) return true;  // ++ --
  if ((c == '+' || c == '-' || c == '*' || c == '/' || c == '%' || c == '&' || c == '|' ||
       c == '^') &&
      i + 1 < text.size() && text[i + 1] == '=') {
    return true;
  }
  if ((c == '<' || c == '>') && i + 2 < text.size() && text[i + 1] == c && text[i + 2] == '=') {
    return true;  // <<= >>=
  }
  return false;
}

void emit(std::vector<Finding>& out, std::string_view rule, const DomainFile& f,
          std::size_t offset, std::string message) {
  out.push_back(Finding{std::string{rule}, f.path,
                        static_cast<int>(f.line_of[offset] + 1), std::move(message)});
}

/// Rule domain-cross-write: walk every occurrence of a bound variable inside
/// a domain context and classify the access that follows it.
void check_cross_writes(const DomainFile& f, const Tables& tables, const FileScan& scan,
                        const std::map<std::string, Binding, std::less<>>& bindings,
                        std::vector<Finding>& out) {
  const std::string_view joined = f.joined;
  for (const auto& [name, binding] : bindings) {
    if (binding.is_const) continue;
    const auto cls_it = tables.classes.find(binding.class_name);
    if (cls_it == tables.classes.end()) continue;
    const std::string& var_domain = cls_it->second.domain;
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(joined, name, from);
      if (pos == std::string_view::npos) break;
      from = pos + name.size();
      const Context* ctx = innermost_context(scan, pos);
      if (ctx == nullptr || ctx->kind != Context::kNormal) continue;
      if (ctx->domain == var_domain) continue;
      if (within_spans(scan.exchange_spans, pos)) continue;
      // Parse the access following the variable: subscripts, then . or ->.
      std::size_t i = pos + name.size();
      while (true) {
        i = skip_ws(joined, i);
        if (i < joined.size() && joined[i] == '[') {
          const std::size_t close = match_bracket(joined, i);
          if (close == std::string_view::npos) break;
          i = close + 1;
          continue;
        }
        break;
      }
      if (i >= joined.size()) continue;
      if (joined[i] == '.') ++i;
      else if (joined.compare(i, 2, "->") == 0) i += 2;
      else continue;  // not a member access (pointer assignment, compare, ...)
      i = skip_ws(joined, i);
      const std::string_view member = word_at(joined, i);
      if (member.empty()) continue;
      const std::size_t after = skip_ws(joined, i + member.size());
      if (after < joined.size() && joined[after] == '(') {
        // Method call: const methods are reads; exchange methods are the
        // declared channel; anything else mutates foreign shard state.
        if (cls_it->second.const_methods.count(member) != 0) continue;
        // `.method()` on a container-of-the-class binding operates on the
        // container — this context's own member — not on the domain class.
        if (binding.via_template && container_method(member)) continue;
        const std::string qualified = binding.class_name + "::" + std::string{member};
        if (tables.exchange_qualified.count(qualified) != 0 ||
            tables.exchange_bare.count(member) != 0) {
          continue;
        }
        emit(out, kCrossWrite, f, pos,
             "'" + std::string{name} + "." + std::string{member} + "(...)' mutates " +
                 var_domain + "-domain state (" + binding.class_name + ") from a " +
                 ctx->domain + "-domain context; route it through a declared "
                 "SQOS_EXCHANGE function or mark the callee SQOS_EXCHANGE if it is "
                 "a legitimate cross-shard channel");
      } else if (write_op_at(joined, i + member.size())) {
        emit(out, kCrossWrite, f, pos,
             "'" + std::string{name} + "." + std::string{member} + "' is written from a " +
                 ctx->domain + "-domain context but belongs to the " + var_domain +
                 "-domain class " + binding.class_name +
                 "; shard state may only be mutated by its owner or through a "
                 "declared SQOS_EXCHANGE function");
      }
    }
  }
}

/// Rule domain-capture: `&var` inside a schedule_at/schedule_after/
/// schedule_series argument list, where `var` is shard state of a foreign
/// domain. The closure will
/// run as a future event on behalf of this shard, so the reference is a
/// cross-shard alias smuggled past the exchange layer.
void check_captures(const DomainFile& f, const Tables& tables, const FileScan& scan,
                    const std::map<std::string, Binding, std::less<>>& bindings,
                    std::vector<Finding>& out) {
  const std::string_view joined = f.joined;
  for (const auto& [b, e] : scan.schedule_spans) {
    for (std::size_t i = b + 1; i < e; ++i) {
      if (joined[i] != '&') continue;
      if (i + 1 < e && joined[i + 1] == '&') { ++i; continue; }  // && / rvalue ref
      if (i > 0 && (joined[i - 1] == '&' || is_word(joined[i - 1]))) continue;
      const std::string_view name = word_at(joined, i + 1);
      if (name.empty()) continue;
      const auto bind_it = bindings.find(name);
      if (bind_it == bindings.end()) continue;
      // A binding declared *inside* the scheduled closure is created when the
      // event runs — same event, same shard — not smuggled across events.
      if (bind_it->second.local && bind_it->second.decl > b && bind_it->second.decl < e) continue;
      const Context* ctx = innermost_context(scan, i);
      if (ctx == nullptr || ctx->kind != Context::kNormal) continue;
      const auto cls_it = tables.classes.find(bind_it->second.class_name);
      if (cls_it == tables.classes.end()) continue;
      if (cls_it->second.domain == ctx->domain) continue;
      emit(out, kCapture, f, i,
           "scheduled event captures '&" + std::string{name} + "' (" +
               cls_it->second.domain + "-domain " + bind_it->second.class_name +
               ") from a " + ctx->domain + "-domain context; the closure runs as a "
               "future event on this shard, so pass a stable id and resolve it at "
               "execution time instead of aliasing foreign shard state");
    }
  }
}

}  // namespace

// ------------------------------------------------------- DomainAnalyzer --

DomainAnalyzer::DomainAnalyzer() = default;
DomainAnalyzer::~DomainAnalyzer() = default;

std::size_t DomainAnalyzer::files_scanned() const { return files_.size(); }

void DomainAnalyzer::add_file(std::string path, std::string content) {
  DomainFile f;
  static_cast<SourceView&>(f) = make_source_view(std::move(path), content);
  build_joined(f);
  files_.push_back(std::move(f));
}

std::vector<Finding> DomainAnalyzer::run() {
  Tables tables;
  std::vector<FileScan> scans(files_.size());
  std::vector<std::vector<bool>> masks(files_.size());

  // Pass 1: classes + annotations (global across TUs; annotations live in
  // headers, their uses in every including .cpp).
  for (std::size_t k = 0; k < files_.size(); ++k) {
    masks[k] = namespace_scope_mask(files_[k].joined);
    collect_classes(files_[k], masks[k], tables, scans[k]);
  }
  for (std::size_t k = 0; k < files_.size(); ++k) {
    collect_marked_functions(files_[k], scans[k], tables);
  }

  // Pass 2: per-file variable bindings (needs the class table).
  for (std::size_t k = 0; k < files_.size(); ++k) {
    collect_bindings(files_[k], tables, scans[k]);
  }

  // Pass 3: contexts and call spans (needs exchange/setup sets).
  for (std::size_t k = 0; k < files_.size(); ++k) {
    collect_cpp_contexts(files_[k], masks[k], tables, scans[k]);
    collect_header_contexts(files_[k], tables, scans[k]);
    collect_call_spans(files_[k], tables, scans[k]);
  }

  // Index by path so a .cpp can pull its paired header's bindings (members
  // declared in the header are used throughout the .cpp).
  std::map<std::string, std::size_t, std::less<>> by_path;
  for (std::size_t k = 0; k < files_.size(); ++k) by_path[files_[k].path] = k;

  std::vector<Finding> all;

  // Rule domain-unannotated: top-level stateful classes in the scoped dirs.
  for (const auto& [name, info] : tables.classes) {
    if (!info.top_level || !info.has_state || !info.domain.empty()) continue;
    if (!in_domain_scoped_dirs(info.file)) continue;
    const auto file_it = by_path.find(info.file);
    if (file_it == by_path.end()) continue;
    all.push_back(Finding{
        std::string{kUnannotated}, info.file, info.line,
        "class " + name + " holds mutable simulation state but declares no "
        "ownership domain; add SQOS_DOMAIN(rm|client|global) — or "
        "SQOS_DOMAIN(owner) if it is a passive component that inherits its "
        "embedder's shard (see src/util/domain.hpp)"});
  }

  // Rules domain-cross-write / domain-capture, then suppressions, per file.
  for (std::size_t k = 0; k < files_.size(); ++k) {
    DomainFile& f = files_[k];
    std::map<std::string, Binding, std::less<>> bindings = scans[k].bindings;
    const std::size_t dot = f.path.rfind('.');
    if (dot != std::string::npos && !is_header(f.path)) {
      for (const std::string_view ext : {std::string_view{".hpp"}, std::string_view{".h"}}) {
        const auto it = by_path.find(f.path.substr(0, dot) + std::string{ext});
        if (it != by_path.end()) {
          for (const auto& [n, bnd] : scans[it->second].bindings) {
            Binding merged = bnd;
            merged.local = false;  // decl offset belongs to the header's text
            bindings.emplace(n, merged);
          }
        }
      }
    }
    std::vector<Finding> raw;
    check_cross_writes(f, tables, scans[k], bindings, raw);
    check_captures(f, tables, scans[k], bindings, raw);
    // Pull this file's share of the unannotated findings into the
    // suppression pass (they were collected globally above).
    for (auto it = all.begin(); it != all.end();) {
      if (it->file == f.path) {
        raw.push_back(std::move(*it));
        it = all.erase(it);
      } else {
        ++it;
      }
    }

    for (Finding& fd : raw) {
      bool suppressed = false;
      for (Suppression& s : f.sups) {
        if (!s.justified) continue;
        if (s.rule != fd.rule && s.rule != "domain") continue;
        if (s.file_scope || s.target_line == fd.line || s.comment_line == fd.line) {
          s.used = true;
          suppressed = true;
          break;
        }
      }
      if (!suppressed) all.push_back(std::move(fd));
    }
    for (const Suppression& s : f.sups) {
      if (!domain_family(s.rule)) continue;  // sqos_lint owns the other rules
      if (!s.justified) {
        all.push_back(Finding{
            std::string{kBadSuppression}, f.path, s.comment_line,
            "suppression of '" + s.rule + "' lacks a justification — write "
            "`sqos-lint: allow(" + s.rule + "): <why this is safe>`; the "
            "finding is NOT suppressed until it has one"});
      } else if (!s.used) {
        all.push_back(Finding{
            std::string{kUnusedSuppression}, f.path, s.comment_line,
            "suppression of '" + s.rule + "' matched no finding; delete it so "
            "stale allowances don't mask future violations"});
      }
    }
  }

  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  all.erase(std::unique(all.begin(), all.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line && a.rule == b.rule &&
                                 a.message == b.message;
                        }),
            all.end());
  return all;
}

const std::vector<RuleInfo>& domain_rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      {kUnannotated, "mutable simulation-state classes in src/{dfs,core,qos,sim,check} "
                     "must declare SQOS_DOMAIN(rm|client|global|owner)"},
      {kCrossWrite, "a method of one domain may not mutate another domain's state "
                    "except through a declared SQOS_EXCHANGE function"},
      {kCapture, "schedule_at/schedule_after/schedule_series closures may not capture "
                 "foreign-domain state by reference"},
      {kBadSuppression, "sqos-lint: allow(domain...) directives require a justification"},
      {kUnusedSuppression, "justified domain suppressions that match nothing must be "
                           "deleted"},
  };
  return kRules;
}

}  // namespace sqos::lint

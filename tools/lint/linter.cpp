#include "lint/linter.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "lint/source_view.hpp"

namespace sqos::lint {
namespace {

// ------------------------------------------------------------- rule ids --

constexpr std::string_view kNoWallclock = "no-wallclock";
constexpr std::string_view kNoUnorderedIteration = "no-unordered-iteration";
constexpr std::string_view kNoUnseededRng = "no-unseeded-rng";
constexpr std::string_view kNoStdFunctionHotpath = "no-std-function-hotpath";
constexpr std::string_view kNoPointerKeyedOrder = "no-pointer-keyed-order";
constexpr std::string_view kNoMutableStatic = "no-mutable-static";
constexpr std::string_view kNodiscardResult = "nodiscard-result";
constexpr std::string_view kPragmaOnce = "pragma-once";
constexpr std::string_view kBadSuppression = "bad-suppression";
constexpr std::string_view kUnusedSuppression = "unused-suppression";

}  // namespace

/// Per-file scan state: the shared comment-and-string-blanked source view
/// (tools/lint/source_view.hpp) plus the unordered-container names declared
/// in this file (the no-unordered-iteration symbol table).
struct SourceFile : SourceView {
  std::set<std::string, std::less<>> unordered_names;
};

namespace {

/// Collect the names declared with an unordered container type in this file:
/// members, locals, parameters, and functions returning one by value. Used
/// by no-unordered-iteration to build the per-TU symbol table.
void collect_unordered_names(SourceFile& f) {
  static constexpr std::string_view kTypes[] = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  // Join lines so declarations split across lines still parse.
  std::string joined;
  for (const std::string& line : f.code) {
    joined += line;
    joined += '\n';
  }
  for (const std::string_view type : kTypes) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(joined, type, from);
      if (pos == std::string_view::npos) break;
      from = pos + type.size();
      std::size_t i = pos + type.size();
      while (i < joined.size() && is_space(joined[i])) ++i;
      if (i >= joined.size() || joined[i] != '<') continue;
      i = skip_template_args(joined, i);
      if (i == std::string_view::npos) break;
      // Skip refs/pointers/cv between the type and the declared name.
      while (i < joined.size()) {
        while (i < joined.size() && is_space(joined[i])) ++i;
        if (i < joined.size() && (joined[i] == '&' || joined[i] == '*')) {
          ++i;
          continue;
        }
        if (joined.compare(i, 5, "const") == 0 &&
            (i + 5 >= joined.size() || !is_word(joined[i + 5]))) {
          i += 5;
          continue;
        }
        break;
      }
      std::size_t name_begin = i;
      while (i < joined.size() && is_word(joined[i])) ++i;
      if (i == name_begin) continue;  // e.g. `unordered_map<...>::iterator`
      f.unordered_names.insert(std::string{joined.substr(name_begin, i - name_begin)});
    }
  }
}

// -------------------------------------------------------- rule scoping --

bool is_header(std::string_view path) {
  return ends_with(path, ".hpp") || ends_with(path, ".h") || ends_with(path, ".hh");
}

bool in_src(std::string_view path) { return starts_with(path, "src/"); }

bool in_hotpath_dirs(std::string_view path) {
  // The tracer runs inside component hot paths whenever recording is on, so
  // src/obs/ is held to the same allocation/dispatch discipline.
  return starts_with(path, "src/sim/") || starts_with(path, "src/storage/") ||
         starts_with(path, "src/obs/");
}

bool in_ordered_iteration_dirs(std::string_view path) {
  return starts_with(path, "src/sim/") || starts_with(path, "src/storage/") ||
         starts_with(path, "src/dfs/") || starts_with(path, "src/net/") ||
         starts_with(path, "src/obs/");
}

/// Files allowed to touch wall-clock time: a future real-time shim would
/// live here. Nothing in the tree qualifies today — the simulator's only
/// clock is SimTime.
bool wallclock_allowlisted(std::string_view path) {
  return starts_with(path, "src/util/wallclock");
}

/// The one home of raw entropy: the seeded xoshiro wrapper.
bool rng_allowlisted(std::string_view path) {
  return starts_with(path, "src/util/rng.");
}

// --------------------------------------------------------------- rules --

using Sink = std::vector<Finding>;

void emit(Sink& out, std::string_view rule, const SourceFile& f, std::size_t line_idx,
          std::string message) {
  out.push_back(Finding{std::string{rule}, f.path, static_cast<int>(line_idx + 1),
                        std::move(message)});
}

void rule_no_wallclock(const SourceFile& f, Sink& out) {
  if (!in_src(f.path) || wallclock_allowlisted(f.path)) return;
  static constexpr std::string_view kWords[] = {
      "system_clock", "steady_clock",  "high_resolution_clock", "gettimeofday",
      "clock_gettime", "timespec_get", "localtime",             "gmtime"};
  static constexpr std::string_view kCalls[] = {"time", "clock"};
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& line = f.code[ln];
    for (const std::string_view w : kWords) {
      if (find_word(line, w) != std::string_view::npos) {
        emit(out, kNoWallclock, f, ln,
             std::string{w} + " reads wall-clock time; simulated time must come "
             "from Simulator::now() so runs replay bit-identically");
      }
    }
    for (const std::string_view c : kCalls) {
      if (find_call(line, c) != std::string_view::npos) {
        emit(out, kNoWallclock, f, ln,
             std::string{c} + "() reads wall-clock time; use SimTime / "
             "Simulator::now() instead");
      }
    }
  }
}

void rule_no_unseeded_rng(const SourceFile& f, Sink& out) {
  if (!in_src(f.path) || rng_allowlisted(f.path)) return;
  static constexpr std::string_view kWords[] = {
      "random_device", "mt19937",  "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};
  static constexpr std::string_view kCalls[] = {"rand", "srand", "drand48", "lrand48"};
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& line = f.code[ln];
    for (const std::string_view w : kWords) {
      if (find_word(line, w) != std::string_view::npos) {
        emit(out, kNoUnseededRng, f, ln,
             std::string{w} + " bypasses the experiment seed; draw from a named "
             "sqos::Rng fork() stream instead");
      }
    }
    for (const std::string_view c : kCalls) {
      if (find_call(line, c) != std::string_view::npos) {
        emit(out, kNoUnseededRng, f, ln,
             std::string{c} + "() is unseeded global state; draw from a named "
             "sqos::Rng fork() stream instead");
      }
    }
  }
}

void rule_no_std_function_hotpath(const SourceFile& f, Sink& out) {
  if (!in_hotpath_dirs(f.path)) return;
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    if (f.code[ln].find("std::function") != std::string::npos) {
      emit(out, kNoStdFunctionHotpath, f, ln,
           "std::function heap-allocates per capture on the event hot path; "
           "use sim::InlineFn (48-byte SBO) or a concrete callable type");
    }
  }
}

void rule_no_pointer_keyed_order(const SourceFile& f, Sink& out) {
  if (!in_src(f.path)) return;
  static constexpr std::string_view kContainers[] = {"map", "set", "multimap", "multiset"};
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& line = f.code[ln];
    for (const std::string_view cont : kContainers) {
      std::size_t from = 0;
      while (true) {
        const std::size_t pos = find_word(line, cont, from);
        if (pos == std::string_view::npos) break;
        from = pos + cont.size();
        std::size_t i = pos + cont.size();
        while (i < line.size() && is_space(line[i])) ++i;
        if (i >= line.size() || line[i] != '<') continue;
        // First template argument: up to a top-level ',' or the closing '>'.
        int depth = 1;
        std::size_t arg_begin = ++i;
        std::size_t arg_end = std::string_view::npos;
        for (; i < line.size(); ++i) {
          const char c = line[i];
          if (c == '<' || c == '(' || c == '[') ++depth;
          else if (c == '>' || c == ')' || c == ']') {
            --depth;
            if (depth == 0) { arg_end = i; break; }
          } else if (c == ',' && depth == 1) {
            arg_end = i;
            break;
          }
        }
        if (arg_end == std::string_view::npos) continue;
        const std::string_view arg =
            trim(std::string_view{line}.substr(arg_begin, arg_end - arg_begin));
        if (ends_with(arg, "*")) {
          emit(out, kNoPointerKeyedOrder, f, ln,
               "ordered container keyed by a raw pointer iterates in address "
               "order, which varies run to run; key by a stable id instead");
        }
      }
    }
  }
}

/// Mutable `static` data (function-local or namespace/class scope) is hidden
/// shared state: it survives across run_experiment calls and is shared by
/// every worker in the parallel runner, so a write from one seed can leak
/// into another and break bit-identical replay. Only `const`/`constexpr`
/// statics pass; `constinit` alone still declares mutable storage and is
/// flagged. Declarations whose first top-level token after the specifiers is
/// `(` are function declarations and are ignored.
void rule_no_mutable_static(const SourceFile& f, Sink& out) {
  if (!in_src(f.path)) return;
  // Join lines (keeping offsets) so declarations split across lines parse.
  std::string joined;
  std::vector<std::size_t> line_of;  // joined offset -> line index
  join_code(f, joined, line_of);
  std::size_t from = 0;
  while (true) {
    const std::size_t pos = find_word(joined, "static", from);
    if (pos == std::string_view::npos) break;
    from = pos + 6;
    // Walk the declaration fragment after `static`, tracking <>/()/[] depth
    // so template arguments and array bounds don't end the scan early. The
    // first top-level structural token classifies the declaration:
    //   '('          -> function declaration (fine: no storage)
    //   ';' '=' '{'  -> data declaration -> mutable unless const/constexpr
    int depth = 0;
    bool immutable = false;
    bool is_function = false;
    bool classified = false;
    for (std::size_t i = pos + 6; i < joined.size(); ++i) {
      const char c = joined[i];
      if (c == '<' || c == '(' || c == '[') {
        if (depth == 0 && c == '(') {
          is_function = true;
          classified = true;
          break;
        }
        ++depth;
      } else if (c == '>' || c == ')' || c == ']') {
        if (depth > 0) --depth;
      } else if (depth == 0 && (c == ';' || c == '=' || c == '{')) {
        classified = true;
        break;
      } else if (depth == 0 && is_word(c)) {
        const std::size_t begin = i;
        while (i < joined.size() && is_word(joined[i])) ++i;
        const std::string_view word =
            std::string_view{joined}.substr(begin, i - begin);
        // `constinit` is deliberately NOT immutable: it constrains the
        // initializer, not later writes.
        if (word == "const" || word == "constexpr") immutable = true;
        --i;  // compensate the loop increment
      }
    }
    if (!classified || is_function || immutable) continue;
    emit(out, kNoMutableStatic, f, line_of[pos],
         "mutable static state outlives the experiment and is shared across "
         "parallel-runner workers, so one seed's writes can leak into "
         "another's replay; make it const/constexpr or pass it explicitly");
  }
}

void rule_nodiscard_result(const SourceFile& f, Sink& out) {
  if (!in_src(f.path)) return;
  // Join lines (keeping offsets) so `class X\n    : base {` parses.
  std::string joined;
  std::vector<std::size_t> line_of;  // joined offset -> line index
  join_code(f, joined, line_of);
  static constexpr std::string_view kKeywords[] = {"class", "struct"};
  for (const std::string_view kw : kKeywords) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(joined, kw, from);
      if (pos == std::string_view::npos) break;
      from = pos + kw.size();
      // `enum class` / `enum struct` define scoped enums, not result types.
      std::size_t back = pos;
      while (back > 0 && is_space(joined[back - 1])) --back;
      if (back >= 4 && joined.compare(back - 4, 4, "enum") == 0 &&
          (back < 5 || !is_word(joined[back - 5]))) {
        continue;
      }
      std::size_t i = pos + kw.size();
      while (i < joined.size() && is_space(joined[i])) ++i;
      bool nodiscard = false;
      while (i + 1 < joined.size() && joined[i] == '[' && joined[i + 1] == '[') {
        const std::size_t close = joined.find("]]", i);
        if (close == std::string::npos) break;
        if (joined.substr(i, close - i).find("nodiscard") != std::string::npos) {
          nodiscard = true;
        }
        i = close + 2;
        while (i < joined.size() && is_space(joined[i])) ++i;
      }
      std::size_t name_begin = i;
      while (i < joined.size() && is_word(joined[i])) ++i;
      if (i == name_begin) continue;
      const std::string_view name = std::string_view{joined}.substr(name_begin, i - name_begin);
      if (!(ends_with(name, "Result") || ends_with(name, "Status") || ends_with(name, "Error"))) {
        continue;
      }
      // Definition vs forward declaration: the next structural token decides.
      while (i < joined.size()) {
        if (joined[i] == '{' || joined[i] == ':') break;  // definition / base clause
        if (joined[i] == ';' || joined[i] == '(' || joined[i] == ')' ||
            joined[i] == ',' || joined[i] == '>' || joined[i] == '=' || joined[i] == '&' ||
            joined[i] == '*') {
          i = joined.size();  // fwd decl, parameter type, template arg, ...
          break;
        }
        ++i;
      }
      if (i >= joined.size()) continue;
      if (!nodiscard) {
        emit(out, kNodiscardResult, f, line_of[name_begin],
             std::string{name} + " carries an outcome callers must not drop; "
             "declare it [[nodiscard]] (like sqos::Status / sqos::Result)");
      }
    }
  }
}

void rule_pragma_once(const SourceFile& f, Sink& out) {
  if (!in_src(f.path) || !is_header(f.path)) return;
  std::size_t first = f.code.size();
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    if (!trim(f.code[ln]).empty()) {
      first = ln;
      break;
    }
  }
  if (first == f.code.size()) return;  // empty header: nothing to guard
  const std::string_view head = trim(f.code[first]);
  if (head == "#pragma once") return;
  if (starts_with(head, "#ifndef")) {  // classic guard: #ifndef X / #define X
    for (std::size_t ln = first + 1; ln < f.code.size(); ++ln) {
      const std::string_view next = trim(f.code[ln]);
      if (next.empty()) continue;
      if (starts_with(next, "#define")) return;
      break;
    }
  }
  emit(out, kPragmaOnce, f, first,
       "header must open with #pragma once (or an #ifndef/#define guard) "
       "before any other code");
}

/// Terminal identifier of a range-for expression: `this->files_` -> files_,
/// `disk_.file_keys()` -> file_keys, `snapshot` -> snapshot.
std::string_view terminal_identifier(std::string_view expr) {
  expr = trim(expr);
  if (ends_with(expr, "()")) expr = trim(expr.substr(0, expr.size() - 2));
  std::size_t end = expr.size();
  while (end > 0 && is_word(expr[end - 1])) --end;
  return expr.substr(end);
}

void rule_no_unordered_iteration(const SourceFile& f,
                                 const std::set<std::string, std::less<>>& symbols,
                                 Sink& out) {
  if (!in_ordered_iteration_dirs(f.path)) return;
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    // Range-for over an unordered container (declaration may span lines;
    // join a small window).
    std::string window = f.code[ln];
    for (std::size_t k = 1; k <= 3 && ln + k < f.code.size(); ++k) {
      window += ' ';
      window += f.code[ln + k];
    }
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_word(window, "for", from);
      if (pos == std::string_view::npos || pos >= f.code[ln].size()) break;
      from = pos + 3;
      std::size_t i = pos + 3;
      while (i < window.size() && is_space(window[i])) ++i;
      if (i >= window.size() || window[i] != '(') continue;
      // Find the top-level ':' (not '::') and the matching ')'.
      int depth = 0;
      std::size_t colon = std::string_view::npos;
      std::size_t close = std::string_view::npos;
      for (std::size_t j = i; j < window.size(); ++j) {
        const char c = window[j];
        if (c == '(' || c == '[' || c == '{') ++depth;
        else if (c == ')' || c == ']' || c == '}') {
          --depth;
          if (depth == 0 && c == ')') { close = j; break; }
        } else if (c == ':' && depth == 1 && colon == std::string_view::npos) {
          const bool dbl = (j + 1 < window.size() && window[j + 1] == ':') ||
                           (j > 0 && window[j - 1] == ':');
          if (!dbl) colon = j;
        } else if (c == ';' && depth == 1) {
          break;  // classic for loop, no range
        }
      }
      if (colon == std::string_view::npos || close == std::string_view::npos) continue;
      const std::string_view ident =
          terminal_identifier(std::string_view{window}.substr(colon + 1, close - colon - 1));
      if (!ident.empty() && symbols.count(ident) != 0) {
        emit(out, kNoUnorderedIteration, f, ln,
             "range-for over unordered container '" + std::string{ident} +
             "': iteration order differs across libstdc++ versions and runs, "
             "and anything it feeds (events, messages, reports) loses "
             "determinism; iterate a sorted snapshot instead");
      }
    }
    // Explicit iterator walk: name.begin() / name.cbegin() / name.rbegin().
    const std::string& line = f.code[ln];
    for (const std::string_view call : {std::string_view{"begin"}, std::string_view{"cbegin"},
                                        std::string_view{"rbegin"}}) {
      std::size_t bpos = 0;
      while (true) {
        bpos = find_call(line, call, bpos);
        if (bpos == std::string_view::npos) break;
        std::size_t j = bpos;
        while (j > 0 && is_space(line[j - 1])) --j;
        std::string_view owner;
        if (j >= 1 && line[j - 1] == '.') {
          owner = terminal_identifier(std::string_view{line}.substr(0, j - 1));
        } else if (j >= 2 && line[j - 1] == '>' && line[j - 2] == '-') {
          owner = terminal_identifier(std::string_view{line}.substr(0, j - 2));
        }
        if (!owner.empty() && symbols.count(owner) != 0) {
          emit(out, kNoUnorderedIteration, f, ln,
               "iterator over unordered container '" + std::string{owner} +
               "': unordered iteration order is not reproducible; copy to a "
               "sorted vector first");
        }
        bpos += call.size();
      }
    }
  }
}

// ---------------------------------------------------------- json/github --

void json_escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

// -------------------------------------------------------------- Linter --

Linter::Linter() = default;
Linter::~Linter() = default;

std::size_t Linter::files_scanned() const { return files_.size(); }

void Linter::add_file(std::string path, std::string content) {
  SourceFile f;
  static_cast<SourceView&>(f) = make_source_view(std::move(path), content);
  collect_unordered_names(f);
  files_.push_back(std::move(f));
}

std::vector<Finding> Linter::run() {
  // Index by path so a .cpp can pull its paired header's declarations.
  std::map<std::string, SourceFile*, std::less<>> by_path;
  for (SourceFile& f : files_) by_path[f.path] = &f;

  std::vector<Finding> all;
  for (SourceFile& f : files_) {
    Sink raw;
    rule_no_wallclock(f, raw);
    rule_no_unseeded_rng(f, raw);
    rule_no_std_function_hotpath(f, raw);
    rule_no_pointer_keyed_order(f, raw);
    rule_no_mutable_static(f, raw);
    rule_nodiscard_result(f, raw);
    rule_pragma_once(f, raw);

    // Per-TU symbol table: this file's unordered names plus its paired
    // header's. Global tables would false-positive on names like `rms_`,
    // which is an unordered_map in one class and a vector in another.
    std::set<std::string, std::less<>> symbols = f.unordered_names;
    const std::size_t dot = f.path.rfind('.');
    if (dot != std::string::npos && !is_header(f.path)) {
      for (const std::string_view ext : {std::string_view{".hpp"}, std::string_view{".h"}}) {
        const auto it = by_path.find(f.path.substr(0, dot) + std::string{ext});
        if (it != by_path.end()) {
          symbols.insert(it->second->unordered_names.begin(),
                         it->second->unordered_names.end());
        }
      }
    }
    rule_no_unordered_iteration(f, symbols, raw);

    // Apply suppressions. An unjustified directive never suppresses: the
    // original finding survives and bad-suppression is added below.
    for (Finding& fd : raw) {
      bool suppressed = false;
      for (Suppression& s : f.sups) {
        if (!s.justified || s.rule != fd.rule) continue;
        if (s.file_scope || s.target_line == fd.line || s.comment_line == fd.line) {
          s.used = true;
          suppressed = true;
          break;
        }
      }
      if (!suppressed) all.push_back(std::move(fd));
    }
    for (const Suppression& s : f.sups) {
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
  return all;
}

// ------------------------------------------------------------- catalog --

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      {kNoWallclock, "wall-clock time sources (chrono clocks, time(), clock()) "
                     "outside the allowlist break bit-replayability"},
      {kNoUnorderedIteration, "iterating unordered_{map,set} in src/{sim,storage,dfs,net} "
                              "feeds platform-dependent order into event order"},
      {kNoUnseededRng, "std:: engines, random_device and rand() bypass the "
                       "experiment seed; use sqos::Rng fork streams"},
      {kNoStdFunctionHotpath, "std::function in src/{sim,storage} regresses the "
                              "InlineFn allocation-free hot path"},
      {kNoPointerKeyedOrder, "std::map/std::set keyed by raw pointers iterate in "
                             "address order, which differs per run"},
      {kNoMutableStatic, "mutable static data in src/ is shared across runs and "
                         "parallel workers; only const/constexpr statics pass"},
      {kNodiscardResult, "types named *Result/*Status/*Error must be [[nodiscard]] "
                         "so outcomes can't be silently dropped"},
      {kPragmaOnce, "headers must open with #pragma once or a classic guard"},
      {kBadSuppression, "sqos-lint: allow(...) directives require a justification"},
      {kUnusedSuppression, "justified suppressions that match nothing must be deleted"},
  };
  return kRules;
}

// -------------------------------------------------------------- output --

std::string to_json(const std::vector<Finding>& findings, std::size_t files_scanned) {
  std::string out;
  out += "{\n  \"schema\": \"sqos-lint-v1\",\n  \"files_scanned\": ";
  out += std::to_string(files_scanned);
  out += ",\n  \"finding_count\": ";
  out += std::to_string(findings.size());
  out += ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"rule\": \"";
    json_escape(out, f.rule);
    out += "\", \"file\": \"";
    json_escape(out, f.file);
    out += "\", \"line\": ";
    out += std::to_string(f.line);
    out += ", \"message\": \"";
    json_escape(out, f.message);
    out += "\"}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string to_github(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += "::error file=" + f.file + ",line=" + std::to_string(f.line) +
           ",title=sqos-lint " + f.rule + "::" + f.message + "\n";
  }
  return out;
}

}  // namespace sqos::lint

// Source model of sqos_lint's token-level scanner.
//
// A per-line "code view" with comments and string literals blanked out (so
// rule tokens inside comments or strings never fire), a per-line comment
// view (where `sqos-lint:` suppression directives live), and a handful of
// word-boundary-aware find helpers that the rules in linter.cpp share.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace sqos::lint {

// ------------------------------------------------------- token helpers --

[[nodiscard]] bool is_word(char c);
[[nodiscard]] bool is_space(char c);
[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);

/// Find `token` in `line` with word boundaries on both sides. `from` is the
/// search start. Returns npos when absent.
[[nodiscard]] std::size_t find_word(std::string_view line, std::string_view token,
                                    std::size_t from = 0);

/// Find a call `name(` with a word boundary on the left (so `run_time(` does
/// not match `time(`). Whitespace between name and paren is accepted.
[[nodiscard]] std::size_t find_call(std::string_view line, std::string_view name,
                                    std::size_t from = 0);

/// Skip a balanced `<...>` template argument list. `pos` points at '<'.
/// Returns the index one past the matching '>', or npos if unbalanced.
[[nodiscard]] std::size_t skip_template_args(std::string_view text, std::size_t pos);

// ----------------------------------------------------------- file model --

/// One suppression directive: the `sqos-lint:` marker followed by
/// `allow(rule): justification`.
struct Suppression {
  std::string rule;
  int comment_line = 0;  // 1-based line of the comment itself
  int target_line = 0;   // line the suppression applies to (file scope: 0)
  bool file_scope = false;
  bool justified = false;
  bool used = false;
};

/// The content of one file split into a comment-and-string-blanked "code
/// view" (rules match against this) plus the comment text per line, with the
/// suppression directives already parsed out of the comments.
struct SourceView {
  std::string path;                   // repo-relative, forward slashes
  std::vector<std::string> code;      // per line; comments/strings blanked
  std::vector<std::string> comments;  // per line; comment text only
  std::vector<Suppression> sups;
};

/// Build the view: normalize path separators, split code/comment views and
/// parse suppression directives.
[[nodiscard]] SourceView make_source_view(std::string path, std::string_view content);

/// Join the code view into one string (newline-separated) with a map from
/// joined offset to 0-based line index, so multi-line declarations parse.
void join_code(const SourceView& view, std::string& joined, std::vector<std::size_t>& line_of);

}  // namespace sqos::lint

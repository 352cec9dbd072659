#include "analysis/render.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/str_util.h"

namespace wsv {
namespace analysis {

namespace {

std::vector<std::string> SplitLines(const std::string& source) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : source) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  AppendJsonEscaped(s, &out);
  out += "\"";
  return out;
}

std::string Plural(size_t n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

}  // namespace

std::string RenderText(const std::vector<Diagnostic>& diagnostics,
                       const std::string& source, const std::string& path) {
  const std::vector<std::string> lines = SplitLines(source);
  std::string out;
  size_t errors = 0, warnings = 0, notes = 0;
  for (const Diagnostic& d : diagnostics) {
    switch (d.severity) {
      case Severity::kError:
        ++errors;
        break;
      case Severity::kWarning:
        ++warnings;
        break;
      case Severity::kNote:
        ++notes;
        break;
    }
    out += path;
    if (d.span.IsValid()) out += StrCat({":", d.span.ToString()});
    out += ": ";
    out += SeverityToString(d.severity);
    out += ": ";
    out += d.message;
    out += " [" + d.rule_id + "]";
    out += "\n";
    // Quote the offending line with a caret marker under the span.
    if (d.span.IsValid() &&
        d.span.line <= static_cast<int>(lines.size())) {
      const std::string& src_line = lines[d.span.line - 1];
      out += "  " + src_line + "\n";
      std::string marker(2, ' ');
      for (int i = 1; i < d.span.column; ++i) {
        const char c =
            i <= static_cast<int>(src_line.size()) ? src_line[i - 1] : ' ';
        marker.push_back(c == '\t' ? '\t' : ' ');
      }
      marker.push_back('^');
      int width = 1;
      if (d.span.end_line == d.span.line &&
          d.span.end_column > d.span.column) {
        width = d.span.end_column - d.span.column;
      }
      for (int i = 1; i < width; ++i) marker.push_back('~');
      out += marker + "\n";
    }
    if (!d.hint.empty()) out += "    = hint: " + d.hint + "\n";
    if (!d.anchor.empty()) out += "    = anchor: " + d.anchor + "\n";
  }
  out += Plural(errors, "error") + ", " + Plural(warnings, "warning") +
         ", " + Plural(notes, "note") + "\n";
  return out;
}

std::string RenderJson(const std::vector<Diagnostic>& diagnostics,
                       const std::string& path) {
  std::string out = "{\n  \"file\": " + JsonString(path) +
                    ",\n  \"diagnostics\": [";
  size_t errors = 0, warnings = 0, notes = 0;
  bool first = true;
  for (const Diagnostic& d : diagnostics) {
    switch (d.severity) {
      case Severity::kError:
        ++errors;
        break;
      case Severity::kWarning:
        ++warnings;
        break;
      case Severity::kNote:
        ++notes;
        break;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rule\": " + JsonString(d.rule_id);
    out += ", \"severity\": " + JsonString(SeverityToString(d.severity));
    if (d.span.IsValid()) {
      out += ", \"line\": " + std::to_string(d.span.line);
      out += ", \"column\": " + std::to_string(d.span.column);
    }
    out += ", \"message\": " + JsonString(d.message);
    if (!d.hint.empty()) out += ", \"hint\": " + JsonString(d.hint);
    if (!d.anchor.empty()) out += ", \"anchor\": " + JsonString(d.anchor);
    if (!d.page.empty()) out += ", \"page\": " + JsonString(d.page);
    out += "}";
  }
  out += first ? "]" : "\n  ]";
  out += ",\n  \"summary\": {\"errors\": " + std::to_string(errors) +
         ", \"warnings\": " + std::to_string(warnings) +
         ", \"notes\": " + std::to_string(notes) + "}\n}\n";
  return out;
}

std::string RenderSarif(const std::vector<Diagnostic>& diagnostics,
                        const std::string& path) {
  // Collect the distinct rules appearing in the findings, preferring
  // registry metadata when available.
  std::vector<std::string> rule_ids;
  std::set<std::string> seen;
  for (const Diagnostic& d : diagnostics) {
    if (seen.insert(d.rule_id).second) rule_ids.push_back(d.rule_id);
  }
  std::sort(rule_ids.begin(), rule_ids.end());

  std::string out;
  out += "{\n";
  out +=
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": \"wsvcli\",\n";
  out +=
      "          \"informationUri\": "
      "\"https://doi.org/10.1145/1055558.1055564\",\n";
  out += "          \"rules\": [";
  bool first = true;
  for (const std::string& id : rule_ids) {
    out += first ? "\n" : ",\n";
    first = false;
    const RuleInfo* info = FindRule(id);
    out += "            {\"id\": " + JsonString(id);
    out += ", \"shortDescription\": {\"text\": " +
           JsonString(info != nullptr ? info->summary : id) + "}";
    if (info != nullptr && info->anchor[0] != '\0') {
      out += ", \"properties\": {\"paperAnchor\": " +
             JsonString(info->anchor) + "}";
    }
    out += "}";
  }
  out += first ? "]\n" : "\n          ]\n";
  out += "        }\n      },\n";
  out += "      \"results\": [";
  first = true;
  for (const Diagnostic& d : diagnostics) {
    out += first ? "\n" : ",\n";
    first = false;
    const char* level =
        d.severity == Severity::kError
            ? "error"
            : d.severity == Severity::kWarning ? "warning" : "note";
    std::string message = d.message;
    if (!d.hint.empty()) message += " (hint: " + d.hint + ")";
    out += "        {\"ruleId\": " + JsonString(d.rule_id);
    out += ", \"level\": " + JsonString(level);
    out += ", \"message\": {\"text\": " + JsonString(message) + "}";
    out += ", \"locations\": [{\"physicalLocation\": {";
    out += "\"artifactLocation\": {\"uri\": " + JsonString(path) + "}";
    if (d.span.IsValid()) {
      out += ", \"region\": {\"startLine\": " + std::to_string(d.span.line) +
             ", \"startColumn\": " + std::to_string(d.span.column);
      if (d.span.end_line >= d.span.line) {
        out += ", \"endLine\": " + std::to_string(d.span.end_line) +
               ", \"endColumn\": " + std::to_string(d.span.end_column);
      }
      out += "}";
    }
    out += "}}]}";
  }
  out += first ? "]\n" : "\n      ]\n";
  out += "    }\n  ]\n}\n";
  return out;
}

}  // namespace analysis
}  // namespace wsv

#include "src/serve/query.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <utility>

#include "src/base/strings.h"
#include "src/eval/context.h"
#include "src/eval/executor.h"
#include "src/eval/plan.h"

namespace inflog {
namespace serve {

namespace {

/// The query rule's head predicate. No query or program can name it
/// (`?` is not an identifier character), so it never aliases a body
/// predicate.
constexpr std::string_view kHeadPredicate = "?";

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `name` lexes as one bare constant in program text: a run of
/// digits, or an identifier starting with a lowercase letter.
bool IsBareConstant(std::string_view name) {
  if (name.empty()) return false;
  const unsigned char c0 = static_cast<unsigned char>(name.front());
  if (std::isdigit(c0) != 0) {
    return std::all_of(name.begin(), name.end(), [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) != 0;
    });
  }
  return std::islower(c0) != 0 &&
         std::all_of(name.begin(), name.end(), IsIdentChar);
}

}  // namespace

Result<ServeQuery> ParseServeQuery(std::string_view line,
                                   const SymbolTable& symbols) {
  ServeQuery query;
  Rule& rule = query.rule;
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
  };
  skip_ws();
  if (i >= line.size() || line[i] != '?') {
    return Status::InvalidArgument(
        StrCat("query must start with '?': ", std::string(line)));
  }
  ++i;
  // Named-variable name -> its output position; the variable's id is
  // rule.head.args[position]. Anonymous `_` terms get fresh ids and
  // never reach the head.
  std::map<std::string, size_t, std::less<>> named;
  std::vector<std::string_view> atom_predicates;  // parallel to rule.body
  while (true) {
    skip_ws();
    const size_t name_start = i;
    while (i < line.size() && IsIdentChar(line[i])) ++i;
    if (i == name_start) {
      return Status::InvalidArgument(
          StrCat("expected a relation name at column ", i + 1, " of query: ",
                 std::string(line)));
    }
    const std::string_view predicate = line.substr(name_start, i - name_start);
    if (i >= line.size() || line[i] != '(') {
      return Status::InvalidArgument(
          StrCat("expected '(' after relation name ", predicate));
    }
    ++i;
    Literal atom;
    std::string key_atom = StrCat(predicate, "(");
    skip_ws();
    if (i < line.size() && line[i] == ')') {
      ++i;  // zero-arity atom
    } else {
      while (true) {
        if (!atom.args.empty()) key_atom += ",";
        skip_ws();
        const size_t term_start = i;
        std::string_view token;
        bool quoted = false;
        if (i < line.size() && line[i] == '\'') {
          // A quoted constant stands for its unquoted text, as in facts.
          const size_t close = line.find('\'', i + 1);
          if (close == std::string_view::npos) {
            return Status::InvalidArgument(StrCat(
                "unterminated quoted constant in query: ", std::string(line)));
          }
          token = line.substr(i + 1, close - i - 1);
          i = close + 1;
          quoted = true;
        } else {
          while (i < line.size() && line[i] != ',' && line[i] != ')' &&
                 std::isspace(static_cast<unsigned char>(line[i])) == 0) {
            ++i;
          }
          if (i == term_start) {
            return Status::InvalidArgument(
                StrCat("empty term in query atom ", predicate));
          }
          token = line.substr(term_start, i - term_start);
        }
        const bool is_var =
            !quoted &&
            (std::isupper(static_cast<unsigned char>(token.front())) != 0 ||
             token.front() == '_');
        if (is_var && token == "_") {
          atom.args.push_back(Term::Var(rule.num_vars++));
          rule.var_names.emplace_back(token);
          key_atom += "_";
        } else if (is_var) {
          auto it = named.find(token);
          if (it == named.end()) {
            it = named.emplace(token, rule.head.args.size()).first;
            rule.head.args.push_back(Term::Var(rule.num_vars++));
            rule.var_names.emplace_back(token);
            query.output_names.emplace_back(token);
          }
          atom.args.push_back(rule.head.args[it->second]);
          // Positional rename: the k-th distinct named variable is $k.
          key_atom += StrCat("$", it->second);
        } else {
          // kNoValue when unknown: the query then matches nothing.
          atom.args.push_back(Term::Const(symbols.Find(token)));
          key_atom += IsBareConstant(token) ? std::string(token)
                                            : StrCat("'", token, "'");
        }
        skip_ws();
        if (i < line.size() && line[i] == ',') {
          ++i;
          continue;
        }
        if (i < line.size() && line[i] == ')') {
          ++i;
          break;
        }
        return Status::InvalidArgument(
            StrCat("unterminated atom in query: ", std::string(line)));
      }
    }
    key_atom += ")";
    query.key += rule.body.empty() ? key_atom : StrCat(",", key_atom);
    query.support.emplace_back(predicate);
    atom_predicates.push_back(predicate);
    rule.body.push_back(std::move(atom));
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  skip_ws();
  if (i < line.size() && line[i] != '#') {
    return Status::InvalidArgument(
        StrCat("trailing garbage after query: ", std::string(line)));
  }
  std::sort(query.support.begin(), query.support.end());
  query.support.erase(
      std::unique(query.support.begin(), query.support.end()),
      query.support.end());
  for (size_t a = 0; a < rule.body.size(); ++a) {
    rule.body[a].predicate = static_cast<uint32_t>(
        std::lower_bound(query.support.begin(), query.support.end(),
                         atom_predicates[a]) -
        query.support.begin());
  }
  rule.head.predicate = static_cast<uint32_t>(query.support.size());
  return query;
}

namespace {

/// The database every query context binds against: all body predicates
/// are overridden, so it only has to exist, and being empty it adds no
/// active domain to copy per query.
const Database& EmptyDatabase() {
  static const Database* const kEmpty = new Database();
  return *kEmpty;
}

}  // namespace

Result<ServeAnswer> EvalServeQuery(const ServeQuery& query,
                                   const Program& program,
                                   const DatabaseSnapshot& snapshot) {
  const Rule& rule = query.rule;
  // Sealed relation per query predicate id; the head's slot stays null
  // so the head binds as the run's one dynamic IDB predicate.
  std::vector<const Relation*> rels(query.support.size() + 1, nullptr);
  bool unknown_constant = false;
  for (const Literal& atom : rule.body) {
    const std::string& name = query.support[atom.predicate];
    if (rels[atom.predicate] == nullptr) {
      INFLOG_ASSIGN_OR_RETURN(rels[atom.predicate],
                              snapshot.Find(program, name));
    }
    const size_t arity = rels[atom.predicate]->arity();
    if (arity != atom.args.size()) {
      return Status::InvalidArgument(
          StrCat("query atom ", name, " has ", atom.args.size(),
                 " terms, relation has arity ", arity));
    }
    for (const Term& t : atom.args) {
      unknown_constant |= t.IsConstant() && t.id == kNoValue;
    }
  }
  Relation out(rule.head.args.size());
  if (!unknown_constant) {
    Program one_rule(EmptyDatabase().shared_symbols());
    for (size_t p = 0; p < query.support.size(); ++p) {
      INFLOG_RETURN_IF_ERROR(
          one_rule.GetOrAddPredicate(query.support[p], rels[p]->arity())
              .status());
    }
    INFLOG_RETURN_IF_ERROR(
        one_rule.GetOrAddPredicate(kHeadPredicate, out.arity()).status());
    INFLOG_RETURN_IF_ERROR(one_rule.AddRule(rule));
    INFLOG_ASSIGN_OR_RETURN(
        const EvalContext ctx,
        EvalContext::CreateWithOverrides(one_rule, EmptyDatabase(),
                                         std::move(rels)));
    const RulePlan plan = PlanRule(one_rule, /*rule_index=*/0,
                                   /*dynamic_idb=*/{true},
                                   /*delta_literal=*/-1);
    EvalStats stats;
    ExecutePlan(ctx, plan, IdbState{}, /*deltas=*/nullptr, &out, &stats);
  }
  ServeAnswer answer;
  answer.ground = query.ground();
  if (answer.ground) {
    answer.truth = !out.empty();
    answer.rendered = answer.truth ? "true" : "false";
  } else {
    answer.rows = out.SortedTuples();
    answer.rendered = out.ToString(snapshot.symbols());
  }
  return answer;
}

}  // namespace serve
}  // namespace inflog
